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

type cell = {
  golden : Golden.t;
  classes : Defuse.byte_class array;
  ram_bytes : int;
  benign_weight : int;
  space : int;
  slots : int;
  conduct :
    Injector.session -> Defuse.byte_class -> bit_in_byte:int -> Outcome.t;
}

let experiments cell = 8 * Array.length cell.classes

(* ------------------------------------------------------------------ *)
(* Burst                                                              *)
(* ------------------------------------------------------------------ *)

(* The burst stays within the addressed byte, so the def/use partition
   of the single-bit model carries over unchanged: equivalence intervals
   are byte-access boundaries, and flipping [width] bits anywhere in an
   untouched interval is equivalent to flipping them at its canonical
   [t_end].  Benign classes stay benign — an overwritten or dormant byte
   is overwritten or dormant no matter how many of its bits flipped. *)
let conduct_burst ~width ~step session (c : Defuse.byte_class)
    ~bit_in_byte =
  Injector.session_run_flip session ~cycle:c.Defuse.t_end ~flip:(fun m ->
      for j = 0 to width - 1 do
        Machine.flip_bit m ((c.Defuse.byte * 8) + ((bit_in_byte + (j * step)) mod 8))
      done)

(* ------------------------------------------------------------------ *)
(* Skip                                                               *)
(* ------------------------------------------------------------------ *)

(* The skip space is the cycle axis: one experiment per executed cycle,
   no equivalence pruning.  The journal records exactly 8 outcome slots
   per class, so cycles pack 8 per synthetic class: class [i] holds
   cycles [8i+1 .. 8i+8], slot [s] injecting at cycle [8i+1+s].  The
   class is encoded [{byte = i; t_start = t_end = 8i+1}] so each slot's
   span-derived experiment weight is 1 (each cycle is its own class) and
   [t_end] stays strictly increasing — shard order therefore visits
   injection cycles non-decreasingly, the session invariant. *)
let skip_classes cycles =
  Array.init
    ((cycles + 7) / 8)
    (fun i ->
      {
        Defuse.byte = i;
        t_start = (8 * i) + 1;
        t_end = (8 * i) + 1;
        kind = Defuse.Experiment;
      })

let conduct_skip ~cycles session (c : Defuse.byte_class) ~bit_in_byte =
  let cycle = c.Defuse.t_start + bit_in_byte in
  if cycle > cycles then
    (* padding slot of the last class, past the golden runtime: the
       cell's [slots] gives it weight 0 in the scan *)
    Outcome.No_effect
  else Injector.session_run_flip session ~cycle ~flip:Machine.skip_next

(* ------------------------------------------------------------------ *)
(* Cells                                                              *)
(* ------------------------------------------------------------------ *)

(* Memory and burst cells share the def/use partition, the geometry
   and the benign weight; only the conductor differs. *)
let memory_cell (golden : Golden.t) conduct =
  let defuse = golden.Golden.defuse in
  let classes = Defuse.experiment_classes defuse in
  {
    golden;
    classes;
    ram_bytes = golden.Golden.program.Program.ram_size;
    benign_weight = Defuse.known_benign_weight defuse;
    space = Golden.fault_space_size golden;
    slots = 8 * Array.length classes;
    conduct;
  }

let of_golden model (golden : Golden.t) =
  match model with
  | Bitflip_reg ->
      invalid_arg "Faultspace.of_golden: Bitflip_reg needs a Regspace.t"
  | Bitflip_mem -> memory_cell golden Scan.conduct_class
  | Burst { width; pattern } ->
      check_burst ~width ~pattern;
      let step = match pattern with Adjacent -> 1 | Row s -> s in
      memory_cell golden (conduct_burst ~width ~step)
  | Skip ->
      let cycles = golden.Golden.cycles in
      let classes = skip_classes cycles in
      {
        golden;
        classes;
        ram_bytes = Array.length classes;
        benign_weight = 0;
        space = cycles;
        slots = cycles;
        conduct = conduct_skip ~cycles;
      }

let of_regspace (r : Regspace.t) =
  let classes = Defuse.experiment_classes r.Regspace.reg_defuse in
  {
    golden = r.Regspace.golden;
    classes;
    ram_bytes = Regspace.pseudo_ram_bytes;
    benign_weight = Defuse.known_benign_weight r.Regspace.reg_defuse;
    space = Regspace.fault_space_size r;
    slots = 8 * Array.length classes;
    conduct = Regspace.conduct;
  }

let analyse ?limit model program =
  match model with
  | Bitflip_reg -> of_regspace (Regspace.analyze ?limit program)
  | _ -> of_golden model (Golden.run ?limit program)

let scan ?variant ?provider ?progress cell =
  Scan.serial ?variant ?provider ?progress ~ram_bytes:cell.ram_bytes
    ~benign_weight:cell.benign_weight ~slots:cell.slots ~conduct:cell.conduct
    cell.golden cell.classes
