type estimate = {
  population : int;
  samples : int;
  failures : int;
  outcome_counts : (Outcome.t * int) list;
  conducted : int;
}

let failure_fraction e =
  if e.samples = 0 then 0.0
  else float_of_int e.failures /. float_of_int e.samples

(* Tally a list of outcomes (one per sample). *)
let tally outcomes =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun o ->
      Hashtbl.replace counts o (1 + Option.value ~default:0 (Hashtbl.find_opt counts o)))
    outcomes;
  List.filter_map
    (fun o ->
      match Hashtbl.find_opt counts o with
      | Some n -> Some (o, n)
      | None -> None)
    Outcome.all

(* Run the distinct experiments behind a list of sample keys.

   [keys] pairs an opaque per-sample tag with the (class, bit) it fell
   into; benign samples carry no class and classify as No_effect without
   execution.  Distinct (class, bit) pairs are deduplicated, ordered by
   injection cycle and executed through a checkpoint session. *)
type sample_target =
  | Benign
  | Class of Defuse.byte_class * int (* bit_in_byte *)

let resolve ?provider golden targets =
  (* Memoisation key: (byte, t_start, bit_in_byte) identifies a class-bit. *)
  let distinct = Hashtbl.create 256 in
  List.iter
    (fun target ->
      match target with
      | Benign -> ()
      | Class (c, bit) ->
          let key = (c.Defuse.byte, c.Defuse.t_start, bit) in
          if not (Hashtbl.mem distinct key) then
            Hashtbl.replace distinct key (c, bit))
    targets;
  let jobs =
    Hashtbl.fold (fun key (c, bit) acc -> (key, c, bit) :: acc) distinct []
  in
  let jobs =
    List.sort
      (fun (_, c1, _) (_, c2, _) -> compare c1.Defuse.t_end c2.Defuse.t_end)
      jobs
  in
  let session = Injector.session (Scan.provider_for golden provider) in
  let results = Hashtbl.create (List.length jobs) in
  List.iter
    (fun (key, c, bit) ->
      let coord = Coordspace.canonical_injection c ~bit_in_byte:bit in
      Hashtbl.replace results key (Injector.session_run_at session coord))
    jobs;
  let outcome_of = function
    | Benign -> Outcome.No_effect
    | Class (c, bit) -> Hashtbl.find results (c.Defuse.byte, c.Defuse.t_start, bit)
  in
  (List.map outcome_of targets, Hashtbl.length results)

let make_estimate ~population ~samples outcomes conducted =
  let failures = List.length (List.filter Outcome.is_failure outcomes) in
  {
    population;
    samples;
    failures;
    outcome_counts = tally outcomes;
    conducted;
  }

let uniform_raw ?provider rng ~samples golden =
  let defuse = golden.Golden.defuse in
  let total_cycles = golden.Golden.cycles in
  let ram_size = golden.Golden.program.Program.ram_size in
  let targets =
    List.init samples (fun _ ->
        let coord = Coordspace.sample_uniform rng ~total_cycles ~ram_size in
        let cls, bit = Coordspace.class_and_bit defuse coord in
        match cls.Defuse.kind with
        | Defuse.Experiment -> Class (cls, bit)
        | Defuse.Overwritten | Defuse.Dormant -> Benign)
  in
  let outcomes, conducted = resolve ?provider golden targets in
  make_estimate
    ~population:(Coordspace.size ~total_cycles ~ram_size)
    ~samples outcomes conducted

let uniform_effective ?provider rng ~samples golden =
  let defuse = golden.Golden.defuse in
  let classes = Defuse.experiment_classes defuse in
  if Array.length classes = 0 then
    make_estimate ~population:0 ~samples [] 0
  else begin
    (* Prefix sums of per-bit class weights; each class contributes its
       weight once per bit, i.e. 8·weight coordinates. *)
    let n = Array.length classes in
    let prefix = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      prefix.(i + 1) <- prefix.(i) + (8 * Defuse.weight classes.(i))
    done;
    let population = prefix.(n) in
    let pick () =
      let x = Prng.int rng population in
      (* Binary search: greatest i with prefix.(i) <= x. *)
      let rec search lo hi =
        if hi - lo <= 1 then lo
        else
          let mid = (lo + hi) / 2 in
          if prefix.(mid) <= x then search mid hi else search lo mid
      in
      let i = search 0 n in
      let within = x - prefix.(i) in
      let bit = within mod 8 in
      Class (classes.(i), bit)
    in
    let targets = List.init samples (fun _ -> pick ()) in
    let outcomes, conducted = resolve ?provider golden targets in
    make_estimate ~population ~samples outcomes conducted
  end

(* Oracle variants: draw the same sample streams but read outcomes from a
   completed pruned scan instead of conducting injections.  The machine is
   deterministic and pruning is lossless, so for the same PRNG state these
   produce estimates identical to their conducting counterparts — which
   lets the CLI reuse a parallel (or journal-resumed) campaign as the
   sampling oracle. *)

let uniform_raw_oracle rng ~samples scan =
  let expand = Scan.expander scan in
  let total_cycles = scan.Scan.cycles in
  let ram_size = scan.Scan.ram_bytes in
  let outcomes =
    List.init samples (fun _ ->
        expand (Coordspace.sample_uniform rng ~total_cycles ~ram_size))
  in
  make_estimate
    ~population:(Coordspace.size ~total_cycles ~ram_size)
    ~samples outcomes 0

let biased_per_class_oracle rng ~samples golden scan =
  let defuse = golden.Golden.defuse in
  let classes = Defuse.experiment_classes defuse in
  let expand = Scan.expander scan in
  let total_cycles = golden.Golden.cycles in
  let ram_size = golden.Golden.program.Program.ram_size in
  let outcomes =
    if Array.length classes = 0 then []
    else
      List.init samples (fun _ ->
          let c = classes.(Prng.int rng (Array.length classes)) in
          let bit_in_byte = Prng.int rng 8 in
          expand (Coordspace.canonical_injection c ~bit_in_byte))
  in
  make_estimate
    ~population:(Coordspace.size ~total_cycles ~ram_size)
    ~samples outcomes 0

let biased_per_class ?provider rng ~samples golden =
  let defuse = golden.Golden.defuse in
  let classes = Defuse.experiment_classes defuse in
  let total_cycles = golden.Golden.cycles in
  let ram_size = golden.Golden.program.Program.ram_size in
  let targets =
    if Array.length classes = 0 then []
    else
      List.init samples (fun _ ->
          let c = classes.(Prng.int rng (Array.length classes)) in
          Class (c, Prng.int rng 8))
  in
  let outcomes, conducted = resolve ?provider golden targets in
  make_estimate
    ~population:(Coordspace.size ~total_cycles ~ram_size)
    ~samples outcomes conducted
