type kind = Read | Write

type entry = { cycle : int; addr : int; width : int; kind : kind }

type t = {
  ram : int;
  mutable items : entry array;
  mutable len : int;
  mutable last_cycle : int;
  mutable cycles : int option; (* Some after seal *)
}

let create ~ram_size =
  if ram_size <= 0 then invalid_arg "Trace.create: ram_size must be positive";
  { ram = ram_size; items = Array.make 1024 { cycle = 0; addr = 0; width = 0; kind = Read };
    len = 0; last_cycle = 0; cycles = None }

let add t ~cycle ~addr ~width ~kind =
  if t.cycles <> None then invalid_arg "Trace.add: trace already sealed";
  if cycle < t.last_cycle then invalid_arg "Trace.add: cycles must be non-decreasing";
  if cycle < 1 then invalid_arg "Trace.add: cycle must be >= 1";
  if addr < 0 || addr + width > t.ram then
    invalid_arg "Trace.add: access outside RAM";
  if width <> 1 && width <> 4 then invalid_arg "Trace.add: width must be 1 or 4";
  if t.len = Array.length t.items then begin
    let bigger = Array.make (2 * t.len) t.items.(0) in
    Array.blit t.items 0 bigger 0 t.len;
    t.items <- bigger
  end;
  t.items.(t.len) <- { cycle; addr; width; kind };
  t.len <- t.len + 1;
  t.last_cycle <- cycle

let seal t ~total_cycles =
  if total_cycles < t.last_cycle then
    invalid_arg "Trace.seal: accesses recorded beyond total_cycles";
  t.cycles <- Some total_cycles

let ram_size t = t.ram

let total_cycles t =
  match t.cycles with
  | Some c -> c
  | None -> invalid_arg "Trace.total_cycles: trace not sealed"

let length t = t.len

let iter_byte_accesses t f =
  for i = 0 to t.len - 1 do
    let e = t.items.(i) in
    for b = e.addr to e.addr + e.width - 1 do
      f ~byte:b ~cycle:e.cycle ~kind:e.kind
    done
  done
