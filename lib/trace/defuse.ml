type class_kind = Experiment | Overwritten | Dormant

let pp_class_kind ppf = function
  | Experiment -> Format.pp_print_string ppf "experiment"
  | Overwritten -> Format.pp_print_string ppf "overwritten"
  | Dormant -> Format.pp_print_string ppf "dormant"

type byte_class = {
  byte : int;
  t_start : int;
  t_end : int;
  kind : class_kind;
}

let weight c = c.t_end - c.t_start + 1

(* Both parts are built on first use: a campaign under a memory model
   reads only [experiments], one under another model neither, and
   [full] is for reports and lookups. *)
type t = {
  trace : Trace.t;
  experiments : experiments option Atomic.t;
  full : full option Atomic.t;
}

and experiments = {
  exp : byte_class array;
  benign : int; (* bit·cycles of the [Overwritten] and [Dormant] classes *)
}

and full = {
  all : byte_class array;
  (* Per byte: offset into [all] of this byte's first class, classes of one
     byte being contiguous and sorted by t_start.  Length ram+1 (fencepost). *)
  byte_offset : int array;
}

let ram_size t = Trace.ram_size t.trace
let total_cycles t = Trace.total_cycles t.trace
let fault_space_size t = total_cycles t * ram_size t * 8

(* Two passes over the trace, with the previous access cycle of each
   byte in [prev] (0 = initial contents, defined at reset).  A byte gets
   a class at every access in a cycle after its previous one — ending in
   a read it is an experiment, in a write overwritten — and a dormant
   class after its last access, when cycles remain.  Pass 1 counts each
   byte's classes into [offset] (the benign ones only if [benign_too])
   and sums the benign weight; pass 2 writes every class counted into
   its slot, in execution order, so each byte's classes come out
   contiguous and sorted by t_start. *)
let partition trace ~benign_too =
  let ram = Trace.ram_size trace in
  let cycles = Trace.total_cycles trace in
  let prev = Array.make ram 0 in
  let offset = Array.make (ram + 1) 0 in
  let benign = ref 0 in
  Trace.iter_byte_accesses trace (fun ~byte ~cycle ~kind ->
      (* One instruction makes at most one memory access per byte, but
         a pseudo-memory may read and write a byte in one cycle: only
         the cycle's first access ends a class. *)
      let p = prev.(byte) in
      if cycle > p then begin
        (match (kind : Trace.kind) with
        | Read -> offset.(byte + 1) <- offset.(byte + 1) + 1
        | Write ->
            benign := !benign + cycle - p;
            if benign_too then offset.(byte + 1) <- offset.(byte + 1) + 1);
        prev.(byte) <- cycle
      end);
  for byte = 0 to ram - 1 do
    if prev.(byte) < cycles then begin
      benign := !benign + cycles - prev.(byte);
      if benign_too then offset.(byte + 1) <- offset.(byte + 1) + 1
    end;
    offset.(byte + 1) <- offset.(byte + 1) + offset.(byte)
  done;
  let classes =
    Array.make offset.(ram)
      { byte = 0; t_start = 1; t_end = cycles; kind = Dormant }
  in
  (* [next.(byte)]: the slot of the byte's next class. *)
  let next = Array.sub offset 0 ram in
  let emit byte c =
    classes.(next.(byte)) <- c;
    next.(byte) <- next.(byte) + 1
  in
  Array.fill prev 0 ram 0;
  Trace.iter_byte_accesses trace (fun ~byte ~cycle ~kind ->
      let p = prev.(byte) in
      if cycle > p then begin
        (match (kind : Trace.kind) with
        | Read -> emit byte { byte; t_start = p + 1; t_end = cycle; kind = Experiment }
        | Write ->
            if benign_too then
              emit byte { byte; t_start = p + 1; t_end = cycle; kind = Overwritten });
        prev.(byte) <- cycle
      end);
  if benign_too then
    for byte = 0 to ram - 1 do
      if prev.(byte) < cycles then
        emit byte { byte; t_start = prev.(byte) + 1; t_end = cycles; kind = Dormant }
    done;
  (classes, offset, 8 * !benign)

let analyze trace =
  ignore (Trace.total_cycles trace : int);
  { trace; experiments = Atomic.make None; full = Atomic.make None }

(* Built once per analysis: the lock makes a second domain that finds
   the cell empty wait for the first one's result. *)
let lock = Mutex.create ()

let once cell build t =
  match Atomic.get cell with
  | Some v -> v
  | None ->
      Mutex.protect lock (fun () ->
          match Atomic.get cell with
          | Some v -> v
          | None ->
              let v = build t in
              Atomic.set cell (Some v);
              v)

let experiments t =
  once t.experiments
    (fun t ->
      let exp, _, benign = partition t.trace ~benign_too:false in
      { exp; benign })
    t

let full t =
  once t.full
    (fun t ->
      let all, byte_offset, _ = partition t.trace ~benign_too:true in
      { all; byte_offset })
    t

let classes t = (full t).all
let experiment_classes t = (experiments t).exp
let experiment_count t = 8 * Array.length (experiment_classes t)
let known_benign_weight t = (experiments t).benign

let find t ~cycle ~byte =
  if byte < 0 || byte >= ram_size t then
    invalid_arg "Defuse.find: byte outside RAM";
  if cycle < 1 || cycle > total_cycles t then
    invalid_arg "Defuse.find: cycle outside run";
  let { all; byte_offset } = full t in
  let lo = byte_offset.(byte) and hi = byte_offset.(byte + 1) in
  (* Binary search for the class with t_start <= cycle <= t_end. *)
  let rec search lo hi =
    if lo >= hi then invalid_arg "Defuse.find: coordinate not covered"
    else
      let mid = (lo + hi) / 2 in
      let c = all.(mid) in
      if cycle < c.t_start then search lo mid
      else if cycle > c.t_end then search (mid + 1) hi
      else c
  in
  search lo hi

let pruning_factor t =
  let experiments = experiment_count t in
  if experiments = 0 then infinity
  else float_of_int (fault_space_size t) /. float_of_int experiments

(* The stdlib 5.1 [Array.sort] — a ternary heap sort — step for step,
   over ints that pack (t_end, index) and compare by t_end alone, so the
   permutation, ties included, is the one [Array.sort] gives with that
   comparison over indices.  [maxson] returns -1 where the stdlib raises
   [Bottom]: no exception, no closure and no boxed pair per step. *)
let rank_by_t_end (classes : byte_class array) =
  let n = Array.length classes in
  let bits = ref 0 in
  while 1 lsl !bits < n do
    incr bits
  done;
  let bits = !bits in
  let limit = max_int lsr bits in
  let a =
    Array.init n (fun i ->
        let t = classes.(i).t_end in
        if t < 0 || t > limit then
          invalid_arg
            (Printf.sprintf
               "Defuse.rank_by_t_end: t_end %d does not pack with %d classes"
               t n);
        (t lsl bits) lor i)
  in
  let key x = x lsr bits in
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if key a.(i31) < key a.(i31 + 1) then i31 + 1 else i31 in
      if key a.(x) < key a.(i31 + 2) then i31 + 2 else x
    end
    else if i31 + 1 < l && key a.(i31) < key a.(i31 + 1) then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let rec trickle l i e =
    let j = maxson l i in
    if j >= 0 && key a.(j) > key e then begin
      a.(i) <- a.(j);
      trickle l j e
    end
    else a.(i) <- e
  in
  let rec bubble l i =
    let j = maxson l i in
    if j < 0 then i
    else begin
      a.(i) <- a.(j);
      bubble l j
    end
  in
  let rec trickleup i e =
    let father = (i - 1) / 3 in
    if key a.(father) < key e then begin
      a.(i) <- a.(father);
      if father > 0 then trickleup father e else a.(0) <- e
    end
    else a.(i) <- e
  in
  for i = ((n + 1) / 3) - 1 downto 0 do
    trickle n i a.(i)
  done;
  for i = n - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if n > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end;
  let mask = (1 lsl bits) - 1 in
  for i = 0 to n - 1 do
    a.(i) <- a.(i) land mask
  done;
  a
