type kind = Read | Write

(* One access is two ints: its cycle in [cycles], and in [packed]
   [addr lsl 4 lor width lsl 1 lor kind] (kind bit 1 = write). *)
type t = {
  ram : int;
  mutable cycles_of : int array;
  mutable packed : int array;
  mutable len : int;
  mutable last_cycle : int;
  mutable cycles : int option; (* Some after seal *)
}

let create ~ram_size =
  if ram_size <= 0 then invalid_arg "Trace.create: ram_size must be positive";
  { ram = ram_size; cycles_of = Array.make 1024 0; packed = Array.make 1024 0;
    len = 0; last_cycle = 0; cycles = None }

let grow a len =
  let bigger = Array.make (2 * len) 0 in
  Array.blit a 0 bigger 0 len;
  bigger

let add t ~cycle ~addr ~width ~kind =
  if Option.is_some t.cycles then invalid_arg "Trace.add: trace already sealed";
  if cycle < t.last_cycle then invalid_arg "Trace.add: cycles must be non-decreasing";
  if cycle < 1 then invalid_arg "Trace.add: cycle must be >= 1";
  if addr < 0 || addr + width > t.ram then
    invalid_arg "Trace.add: access outside RAM";
  if width <> 1 && width <> 4 then invalid_arg "Trace.add: width must be 1 or 4";
  if t.len = Array.length t.cycles_of then begin
    t.cycles_of <- grow t.cycles_of t.len;
    t.packed <- grow t.packed t.len
  end;
  t.cycles_of.(t.len) <- cycle;
  t.packed.(t.len) <-
    (addr lsl 4) lor (width lsl 1) lor (match kind with Read -> 0 | Write -> 1);
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

let packed t i =
  if i < 0 || i >= t.len then invalid_arg "Trace: access index out of range";
  t.packed.(i)

let cycle t i =
  ignore (packed t i);
  t.cycles_of.(i)

let addr t i = packed t i lsr 4
let width t i = (packed t i lsr 1) land 7
let kind t i = if packed t i land 1 = 0 then Read else Write

let iter_byte_accesses t f =
  for i = 0 to t.len - 1 do
    let cycle = t.cycles_of.(i) and p = t.packed.(i) in
    let addr = p lsr 4 and kind = if p land 1 = 0 then Read else Write in
    for byte = addr to addr + ((p lsr 1) land 7) - 1 do
      f ~byte ~cycle ~kind
    done
  done
