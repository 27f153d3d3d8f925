type burst_pattern = Adjacent | Row of int

type model =
  | Bitflip_mem
  | Bitflip_reg
  | Burst of { width : int; pattern : burst_pattern }
  | Skip

let check_burst ~width ~pattern =
  if width < 2 || width > 8 then
    invalid_arg
      (Printf.sprintf "Faultspace.burst: width %d outside 2..8" width);
  match pattern with
  | Adjacent -> ()
  | Row s ->
      if s < 2 || s > 7 then
        invalid_arg
          (Printf.sprintf "Faultspace.burst: row stride %d outside 2..7" s)

let burst ?row width =
  let pattern = match row with None -> Adjacent | Some s -> Row s in
  check_burst ~width ~pattern;
  Burst { width; pattern }

let tag = function
  | Bitflip_mem -> "mem"
  | Bitflip_reg -> "reg"
  | Burst { width; pattern = Adjacent } -> Printf.sprintf "burst%d" width
  | Burst { width; pattern = Row s } -> Printf.sprintf "burst%dr%d" width s
  | Skip -> "skip"

let known =
  [
    ("mem", "single-bit memory flips, def/use pruned (the paper's model)");
    ("reg", "single-bit register-file flips (Section VI-B)");
    ("burst<w>", "<w>-adjacent-bit burst within one byte, 2 <= w <= 8");
    ( "burst<w>r<s>",
      "<w>-bit burst at SRAM row stride <s> (bit-interleaved adjacency), \
       2 <= s <= 7" );
    ("skip", "one-cycle instruction skip (fetched instruction becomes a nop)");
  ]

let describe = function
  | Bitflip_mem -> "single-bit memory flips, def/use pruned"
  | Bitflip_reg -> "single-bit register-file flips"
  | Burst { width; pattern = Adjacent } ->
      Printf.sprintf "%d-adjacent-bit burst within one data byte" width
  | Burst { width; pattern = Row s } ->
      Printf.sprintf
        "%d-bit spatially-correlated burst within one data byte (row stride \
         %d)"
        width s
  | Skip -> "one-cycle instruction skip"

let of_tag s =
  let fail () =
    Error
      (Printf.sprintf
         "unknown fault model %S (expected %s)" s
         (String.concat ", " (List.map fst known)))
  in
  match s with
  | "mem" -> Ok Bitflip_mem
  | "reg" -> Ok Bitflip_reg
  | "skip" -> Ok Skip
  | _ when String.length s > 5 && String.sub s 0 5 = "burst" -> (
      let rest = String.sub s 5 (String.length s - 5) in
      let parse_burst width pattern =
        if width < 2 || width > 8 then
          Error (Printf.sprintf "burst width in %S outside 2..8" s)
        else
          match pattern with
          | Row stride when stride < 2 || stride > 7 ->
              Error (Printf.sprintf "burst row stride in %S outside 2..7" s)
          | _ -> Ok (Burst { width; pattern })
      in
      match String.index_opt rest 'r' with
      | None -> (
          match int_of_string_opt rest with
          | Some w -> parse_burst w Adjacent
          | None -> fail ())
      | Some i -> (
          let w = String.sub rest 0 i in
          let r = String.sub rest (i + 1) (String.length rest - i - 1) in
          match (int_of_string_opt w, int_of_string_opt r) with
          | Some w, Some r -> parse_burst w (Row r)
          | _ -> fail ()))
  | _ -> fail ()

let legacy = function
  | Bitflip_mem | Bitflip_reg -> true
  | Burst _ | Skip -> false

type coord = { cycle : int; bit : int }

type cell = {
  model : model;
  golden : Golden.t;
  classes : Defuse.byte_class array;
  ram_bytes : int;
  benign_weight : int;
  rows : int;
  slots : int;
  locate : coord -> int option;
  inject : Injector.session -> coord -> Outcome.t;
  conduct :
    Injector.session -> Defuse.byte_class -> bit_in_byte:int -> Outcome.t;
  provider : unit -> Injector.provider;
}

let experiments cell = 8 * Array.length cell.classes
let space cell = cell.golden.Golden.cycles * cell.rows

(* ------------------------------------------------------------------ *)
(* Geometry                                                           *)
(* ------------------------------------------------------------------ *)

(* Every model's axes are [1, Δt] × [0, rows); a coordinate outside them
   is a caller's error, never a benign answer. *)
let check_bounds ~cycles ~rows { cycle; bit } =
  if cycle < 1 || cycle > cycles || bit < 0 || bit >= rows then
    invalid_arg
      (Printf.sprintf "Faultspace: coordinate (%d, %d) outside %d x %d" cycle
         bit cycles rows)

(* Deferred so that a process which only analyses (journals, shards,
   dispatches) never pays for the checkpoint ladder: the first caller
   that conducts builds it, exactly once.  A mutex-guarded once-cell
   rather than [Lazy.t]: the domains backend forces it from several
   domains at once, which [Lazy] forbids. *)
let provider_once ~stride golden =
  let lock = Mutex.create () in
  let built = ref None in
  fun () ->
    Mutex.protect lock (fun () ->
        match !built with
        | Some p -> p
        | None ->
            let p = Injector.plan ~stride golden in
            built := Some p;
            p)

let with_stride stride cell =
  { cell with provider = provider_once ~stride cell.golden }

(* The one constructor: [locate] and [inject] are given for in-range
   coordinates and checked here, for every model alike.  [conduct]
   injects at canonical coordinates, in range by construction. *)
let make model golden ~classes ~ram_bytes ~benign_weight ~rows ~slots ~locate
    ~inject ~conduct =
  let check = check_bounds ~cycles:golden.Golden.cycles ~rows in
  {
    model;
    golden;
    classes;
    ram_bytes;
    benign_weight;
    rows;
    slots;
    locate =
      (fun coord ->
        check coord;
        locate coord);
    inject =
      (fun session coord ->
        check coord;
        inject session coord);
    conduct;
    provider = provider_once ~stride:Injector.default_stride golden;
  }

(* Byte-class models (memory, burst, registers): row [r] is bit [r mod 8]
   of byte [r / 8].  The experiment classes are sorted by (byte, t_start)
   and disjoint within a byte, so the class holding a coordinate, if
   any, is the last one not after (byte, cycle): a binary search over
   the cell's own array, with no index to build.  A coordinate in no
   experiment class lies in an overwritten or dormant interval. *)
let locate_byte_classes (classes : Defuse.byte_class array) { cycle; bit } =
  let byte = bit / 8 in
  let before (c : Defuse.byte_class) =
    c.Defuse.byte < byte || (c.Defuse.byte = byte && c.Defuse.t_start <= cycle)
  in
  (* [lo] ends as the count of classes not after (byte, cycle) *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if before classes.(mid) then search (mid + 1) hi else search lo mid
  in
  let i = search 0 (Array.length classes) - 1 in
  if i >= 0 && classes.(i).Defuse.byte = byte && cycle <= classes.(i).Defuse.t_end
  then Some ((8 * i) + (bit mod 8))
  else None

(* A byte-class slot is conducted as the injection at its canonical
   coordinate: the class's [t_end], directly before the activating read
   (Figure 1b), row [8 × byte + bit_in_byte]. *)
let byte_cell model golden ~classes ~ram_bytes ~benign_weight inject =
  make model golden ~classes ~ram_bytes ~benign_weight ~rows:(8 * ram_bytes)
    ~slots:(8 * Array.length classes)
    ~locate:(locate_byte_classes classes) ~inject
    ~conduct:(fun session (c : Defuse.byte_class) ~bit_in_byte ->
      inject session
        { cycle = c.Defuse.t_end; bit = (c.Defuse.byte * 8) + bit_in_byte })

(* ------------------------------------------------------------------ *)
(* Injections                                                         *)
(* ------------------------------------------------------------------ *)

(* Each flips the machine state right before the coordinate's cycle on
   the session's machine and classifies the resumed run. *)
let inject_mem session { cycle; bit } =
  Injector.session_run_flip session ~cycle ~flip:(fun m -> Machine.flip_bit m bit)

let inject_reg session { cycle; bit } =
  let reg, bit = Regspace.coord_of_bit bit in
  Injector.session_run_flip session ~cycle ~flip:(fun m ->
      Machine.flip_reg_bit m ~reg ~bit)

(* The burst stays within the addressed byte, so the def/use partition
   of the single-bit model carries over unchanged: equivalence intervals
   are byte-access boundaries, and flipping [width] bits anywhere in an
   untouched interval is equivalent to flipping them at its canonical
   [t_end].  Benign classes stay benign — an overwritten or dormant byte
   is overwritten or dormant no matter how many of its bits flipped. *)
let inject_burst ~width ~step session { cycle; bit } =
  let byte = bit / 8 in
  Injector.session_run_flip session ~cycle ~flip:(fun m ->
      for j = 0 to width - 1 do
        Machine.flip_bit m ((byte * 8) + ((bit + (j * step)) mod 8))
      done)

let inject_skip session { cycle; bit = _ } =
  Injector.session_run_flip session ~cycle ~flip:Machine.skip_next

(* ------------------------------------------------------------------ *)
(* Cells                                                              *)
(* ------------------------------------------------------------------ *)

(* The skip space is the cycle axis: one row, one experiment per
   executed cycle, no equivalence pruning.  The journal records exactly
   8 outcome slots per class, so cycles pack 8 per synthetic class:
   class [i] holds cycles [8i+1 .. 8i+8], slot [s = 8i + j] injecting at
   cycle [s + 1].  The class is encoded [{byte = i; t_start = t_end =
   8i+1}] so each slot's span-derived experiment weight is 1 (each cycle
   is its own class) and [t_end] stays strictly increasing — shard order
   therefore visits injection cycles non-decreasingly, the session
   invariant. *)
let skip_cell (golden : Golden.t) =
  let cycles = golden.Golden.cycles in
  let classes =
    Array.init
      ((cycles + 7) / 8)
      (fun i ->
        {
          Defuse.byte = i;
          t_start = (8 * i) + 1;
          t_end = (8 * i) + 1;
          kind = Defuse.Experiment;
        })
  in
  make Skip golden ~classes ~ram_bytes:(Array.length classes) ~benign_weight:0
    ~rows:1 ~slots:cycles
    ~locate:(fun c -> Some (c.cycle - 1))
    ~inject:inject_skip
    ~conduct:(fun session (c : Defuse.byte_class) ~bit_in_byte ->
      let cycle = c.Defuse.t_start + bit_in_byte in
      if cycle > cycles then
        (* padding slot of the last class, past the golden runtime: the
           cell's [slots] gives it weight 0 in the scan *)
        Outcome.No_effect
      else inject_skip session { cycle; bit = 0 })

(* Memory and burst cells share the def/use partition, the geometry
   and the benign weight; only the injection differs. *)
let memory_cell model (golden : Golden.t) inject =
  let defuse = golden.Golden.defuse in
  byte_cell model golden
    ~classes:(Defuse.experiment_classes defuse)
    ~ram_bytes:golden.Golden.program.Program.ram_size
    ~benign_weight:(Defuse.known_benign_weight defuse)
    inject

(* The register cell shares the golden run and its register trace: its
   classes are the register def/use partition ([Regspace.of_golden]),
   four byte classes of the pseudo-memory per register interval. *)
let register_cell (golden : Golden.t) =
  let r = Regspace.of_golden golden in
  byte_cell Bitflip_reg golden ~classes:r.Regspace.classes
    ~ram_bytes:Regspace.pseudo_ram_bytes
    ~benign_weight:r.Regspace.benign_weight inject_reg

let of_golden model (golden : Golden.t) =
  match model with
  | Bitflip_mem -> memory_cell model golden inject_mem
  | Bitflip_reg -> register_cell golden
  | Burst { width; pattern } ->
      check_burst ~width ~pattern;
      let step = match pattern with Adjacent -> 1 | Row s -> s in
      memory_cell model golden (inject_burst ~width ~step)
  | Skip -> skip_cell golden

let analyse ?limit model program = of_golden model (Golden.run ?limit program)

(* ------------------------------------------------------------------ *)
(* Serial conduction                                                  *)
(* ------------------------------------------------------------------ *)

let conduct_slots cell slots =
  let session = Injector.session (cell.provider ()) in
  Array.map
    (fun s -> cell.conduct session cell.classes.(s / 8) ~bit_in_byte:(s mod 8))
    slots

let scan ?(variant = "baseline") cell =
  (* Sessions require non-decreasing injection cycles and byte classes
     are sorted by (byte, t_start): visit the classes by t_end. *)
  let order = Defuse.rank_by_t_end cell.classes in
  let slots =
    Array.init (experiments cell) (fun i -> (8 * order.(i / 8)) + (i mod 8))
  in
  let conducted = conduct_slots cell slots in
  let outcomes = Bytes.create (experiments cell) in
  Array.iteri
    (fun i s -> Bytes.set outcomes s (Outcome.to_char conducted.(i)))
    slots;
  Scan.of_outcomes ~variant ~ram_bytes:cell.ram_bytes
    ~benign_weight:cell.benign_weight ~slots:cell.slots cell.golden cell.classes
    outcomes

let outcome_at cell (scan : Scan.t) coord =
  match cell.locate coord with
  | None -> Outcome.No_effect
  | Some slot -> scan.Scan.experiments.(slot).Scan.outcome

let brute_force cell =
  let session = Injector.session (Injector.replay cell.golden) in
  Array.init (space cell) (fun i ->
      let coord = { cycle = 1 + (i / cell.rows); bit = i mod cell.rows } in
      (coord, cell.inject session coord))
