(* Tests for trace recording, def/use analysis and fault-space geometry. *)

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_basic () =
  let t = Trace.create ~ram_size:8 in
  Trace.add t ~cycle:1 ~addr:0 ~width:4 ~kind:Trace.Write;
  Trace.add t ~cycle:3 ~addr:2 ~width:1 ~kind:Trace.Read;
  Trace.seal t ~total_cycles:5;
  Alcotest.(check int) "length" 2 (Trace.length t);
  Alcotest.(check int) "cycles" 5 (Trace.total_cycles t);
  Alcotest.(check int) "ram" 8 (Trace.ram_size t)

let test_trace_validation () =
  let t = Trace.create ~ram_size:8 in
  Trace.add t ~cycle:5 ~addr:0 ~width:1 ~kind:Trace.Read;
  Alcotest.check_raises "decreasing cycle"
    (Invalid_argument "Trace.add: cycles must be non-decreasing") (fun () ->
      Trace.add t ~cycle:4 ~addr:0 ~width:1 ~kind:Trace.Read);
  Alcotest.check_raises "outside ram"
    (Invalid_argument "Trace.add: access outside RAM") (fun () ->
      Trace.add t ~cycle:6 ~addr:7 ~width:4 ~kind:Trace.Read);
  Alcotest.check_raises "bad width"
    (Invalid_argument "Trace.add: width must be 1 or 4") (fun () ->
      Trace.add t ~cycle:6 ~addr:0 ~width:2 ~kind:Trace.Read);
  Alcotest.check_raises "seal before last access"
    (Invalid_argument "Trace.seal: accesses recorded beyond total_cycles")
    (fun () -> Trace.seal t ~total_cycles:3)

let test_trace_unsealed () =
  let t = Trace.create ~ram_size:8 in
  Alcotest.check_raises "total_cycles before seal"
    (Invalid_argument "Trace.total_cycles: trace not sealed") (fun () ->
      ignore (Trace.total_cycles t))

let test_byte_expansion () =
  let t = Trace.create ~ram_size:8 in
  Trace.add t ~cycle:2 ~addr:4 ~width:4 ~kind:Trace.Write;
  Trace.seal t ~total_cycles:4;
  let visits = ref [] in
  Trace.iter_byte_accesses t (fun ~byte ~cycle ~kind:_ ->
      visits := (byte, cycle) :: !visits);
  Alcotest.(check (list (pair int int)))
    "word covers 4 bytes"
    [ (4, 2); (5, 2); (6, 2); (7, 2) ]
    (List.rev !visits)

let test_trace_growth () =
  (* Exceed the initial capacity to exercise array growth. *)
  let t = Trace.create ~ram_size:8 in
  for c = 1 to 3000 do
    Trace.add t ~cycle:c ~addr:0 ~width:1 ~kind:Trace.Read
  done;
  Trace.seal t ~total_cycles:3000;
  Alcotest.(check int) "all recorded" 3000 (Trace.length t)

(* ------------------------------------------------------------------ *)
(* Def/use analysis                                                   *)
(* ------------------------------------------------------------------ *)

(* The paper's Figure 1 example: one byte, W at cycle 4, R at cycle 11,
   12 cycles total. *)
let figure1_defuse () =
  let t = Trace.create ~ram_size:1 in
  Trace.add t ~cycle:4 ~addr:0 ~width:1 ~kind:Trace.Write;
  Trace.add t ~cycle:11 ~addr:0 ~width:1 ~kind:Trace.Read;
  Trace.seal t ~total_cycles:12;
  Defuse.analyze t

let test_defuse_figure1 () =
  let d = figure1_defuse () in
  let classes = Defuse.classes d in
  Alcotest.(check int) "three classes" 3 (Array.length classes);
  let c0 = classes.(0) and c1 = classes.(1) and c2 = classes.(2) in
  Alcotest.(check bool) "overwritten [1,4]" true
    (c0.Defuse.t_start = 1 && c0.Defuse.t_end = 4 && c0.Defuse.kind = Defuse.Overwritten);
  Alcotest.(check bool) "experiment [5,11]" true
    (c1.Defuse.t_start = 5 && c1.Defuse.t_end = 11 && c1.Defuse.kind = Defuse.Experiment);
  Alcotest.(check int) "weight 7 (the paper's class size)" 7 (Defuse.weight c1);
  Alcotest.(check bool) "dormant [12,12]" true
    (c2.Defuse.t_start = 12 && c2.Defuse.t_end = 12 && c2.Defuse.kind = Defuse.Dormant);
  Alcotest.(check int) "8 experiments" 8 (Defuse.experiment_count d);
  Alcotest.(check int) "fault space" (12 * 8) (Defuse.fault_space_size d)

let test_defuse_initial_read () =
  (* A read of initialised memory: the interval [1, read] is an
     experiment (the initial contents count as defined at cycle 0). *)
  let t = Trace.create ~ram_size:1 in
  Trace.add t ~cycle:3 ~addr:0 ~width:1 ~kind:Trace.Read;
  Trace.seal t ~total_cycles:4;
  let d = Defuse.analyze t in
  let c = Defuse.find d ~cycle:2 ~byte:0 in
  Alcotest.(check bool) "experiment from reset" true
    (c.Defuse.t_start = 1 && c.Defuse.t_end = 3 && c.Defuse.kind = Defuse.Experiment)

let test_defuse_untouched_byte () =
  let t = Trace.create ~ram_size:2 in
  Trace.add t ~cycle:1 ~addr:0 ~width:1 ~kind:Trace.Read;
  Trace.seal t ~total_cycles:3;
  let d = Defuse.analyze t in
  let c = Defuse.find d ~cycle:2 ~byte:1 in
  Alcotest.(check bool) "dormant for whole run" true
    (c.Defuse.t_start = 1 && c.Defuse.t_end = 3 && c.Defuse.kind = Defuse.Dormant)

let test_defuse_back_to_back () =
  (* Read at cycle 1 then read at cycle 2: two experiment classes of
     weight 1 each. *)
  let t = Trace.create ~ram_size:1 in
  Trace.add t ~cycle:1 ~addr:0 ~width:1 ~kind:Trace.Read;
  Trace.add t ~cycle:2 ~addr:0 ~width:1 ~kind:Trace.Read;
  Trace.seal t ~total_cycles:2;
  let d = Defuse.analyze t in
  Alcotest.(check int) "two experiment classes x 8 bits" 16
    (Defuse.experiment_count d);
  Alcotest.(check int) "no benign weight" 0 (Defuse.known_benign_weight d)

let test_defuse_find_errors () =
  let d = figure1_defuse () in
  Alcotest.check_raises "cycle 0" (Invalid_argument "Defuse.find: cycle outside run")
    (fun () -> ignore (Defuse.find d ~cycle:0 ~byte:0));
  Alcotest.check_raises "byte out" (Invalid_argument "Defuse.find: byte outside RAM")
    (fun () -> ignore (Defuse.find d ~cycle:1 ~byte:1))

(* Random-trace generator for the partition property. *)
let gen_trace =
  let open QCheck.Gen in
  let ram_size = 4 in
  let* n_accesses = int_range 0 30 in
  let* cycles = int_range (Stdlib.max 1 n_accesses) 60 in
  let* raw =
    list_repeat n_accesses
      (triple (int_range 1 cycles) (int_range 0 (ram_size - 1)) bool)
  in
  (* Sort by cycle and drop duplicate (cycle, byte) pairs so at most one
     access per byte per cycle. *)
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) raw in
  let seen = Hashtbl.create 16 in
  let accesses =
    List.filter
      (fun (c, b, _) ->
        if Hashtbl.mem seen (c, b) then false
        else begin
          Hashtbl.replace seen (c, b) ();
          true
        end)
      sorted
  in
  let t = Trace.create ~ram_size in
  List.iter
    (fun (cycle, addr, is_read) ->
      Trace.add t ~cycle ~addr ~width:1
        ~kind:(if is_read then Trace.Read else Trace.Write))
    accesses;
  Trace.seal t ~total_cycles:cycles;
  return t

let arbitrary_trace = QCheck.make gen_trace

let qcheck_partition_exact =
  QCheck.Test.make ~name:"def/use classes partition the fault space exactly"
    ~count:300 arbitrary_trace (fun t ->
      let d = Defuse.analyze t in
      (* 1. Weights sum to the fault-space size. *)
      let total_weight =
        8 * Array.fold_left (fun acc c -> acc + Defuse.weight c) 0 (Defuse.classes d)
      in
      total_weight = Defuse.fault_space_size d
      (* 2. Every coordinate is found and within its class bounds. *)
      && (let ok = ref true in
          for cycle = 1 to Defuse.total_cycles d do
            for byte = 0 to Defuse.ram_size d - 1 do
              let c = Defuse.find d ~cycle ~byte in
              if
                c.Defuse.byte <> byte || cycle < c.Defuse.t_start
                || cycle > c.Defuse.t_end
              then ok := false
            done
          done;
          !ok)
      (* 3. Bookkeeping consistency. *)
      && Defuse.known_benign_weight d
         + (8
           * Array.fold_left
               (fun acc c ->
                 if c.Defuse.kind = Defuse.Experiment then acc + Defuse.weight c
                 else acc)
               0 (Defuse.classes d))
         = Defuse.fault_space_size d)

(* The list-based def/use analysis this module replaced, kept as the
   oracle for the two-pass one: per-byte cons lists of accesses, each
   reversed and walked into a list of classes.  It reads the accesses
   from a plain list in execution order, not from a [Trace.t], so it
   checks the flat trace's byte expansion as well. *)
let list_analyze ~ram ~cycles accesses =
  let per_byte : (int * Trace.kind) list array = Array.make ram [] in
  List.iter
    (fun (cycle, addr, width, kind) ->
      for byte = addr to addr + width - 1 do
        per_byte.(byte) <- (cycle, kind) :: per_byte.(byte)
      done)
    accesses;
  let out = ref [] in
  for byte = 0 to ram - 1 do
    let emit c = out := c :: !out in
    let rec walk prev = function
      | [] ->
          if prev < cycles then
            emit { Defuse.byte; t_start = prev + 1; t_end = cycles; kind = Defuse.Dormant }
      | (cycle, kind) :: rest ->
          if cycle > prev then begin
            let kind =
              match (kind : Trace.kind) with
              | Trace.Read -> Defuse.Experiment
              | Trace.Write -> Defuse.Overwritten
            in
            emit { Defuse.byte; t_start = prev + 1; t_end = cycle; kind }
          end;
          walk cycle rest
    in
    walk 0 (List.rev per_byte.(byte))
  done;
  Array.of_list (List.rev !out)

(* [classes], [experiment_classes], [known_benign_weight] and [find]
   (at every class's first and last cycle) of [d] against the oracle's
   classes; [None] when they agree. *)
let defuse_disagreement d oracle =
  let experiments =
    Array.of_list
      (List.filter
         (fun c -> c.Defuse.kind = Defuse.Experiment)
         (Array.to_list oracle))
  in
  let benign =
    8
    * Array.fold_left
        (fun n c -> if c.Defuse.kind = Defuse.Experiment then n else n + Defuse.weight c)
        0 oracle
  in
  if Defuse.classes d <> oracle then Some "classes"
  else if Defuse.experiment_classes d <> experiments then Some "experiment_classes"
  else if Defuse.known_benign_weight d <> benign then Some "known_benign_weight"
  else
    Array.fold_left
      (fun acc c ->
        match acc with
        | Some _ -> acc
        | None ->
            let at cycle = Defuse.find d ~cycle ~byte:c.Defuse.byte = c in
            if at c.Defuse.t_start && at c.Defuse.t_end then None
            else Some (Printf.sprintf "find in byte %d at [%d, %d]" c.Defuse.byte
                         c.Defuse.t_start c.Defuse.t_end))
      None oracle

(* Sealed random traces: byte and word accesses (the last RAM word
   among them), several per cycle — one byte may be read and written in
   the same cycle, as the register pseudo-memory does — and bytes that
   are never touched. *)
let gen_mixed_accesses =
  let open QCheck.Gen in
  let* words = int_range 1 4 in
  let ram = 4 * words in
  let* cycles = int_range 1 40 in
  let* n = int_range 0 40 in
  let access =
    let* cycle = int_range 1 cycles in
    let* word = bool in
    let* addr =
      if word then oneof [ return (ram - 4); int_range 0 (ram - 4) ]
      else int_range 0 (ram - 1)
    in
    let* read = bool in
    return (cycle, addr, (if word then 4 else 1), if read then Trace.Read else Trace.Write)
  in
  let* accesses = list_repeat n access in
  let accesses =
    List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) accesses
  in
  return (ram, cycles, accesses)

let qcheck_flat_defuse_matches_lists =
  QCheck.Test.make ~name:"def/use two-pass analysis equals the list algorithm"
    ~count:500
    (QCheck.make gen_mixed_accesses)
    (fun (ram, cycles, accesses) ->
      let t = Trace.create ~ram_size:ram in
      List.iter
        (fun (cycle, addr, width, kind) -> Trace.add t ~cycle ~addr ~width ~kind)
        accesses;
      Trace.seal t ~total_cycles:cycles;
      match defuse_disagreement (Defuse.analyze t) (list_analyze ~ram ~cycles accesses) with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "%s differ" what)

(* The same on every suite program's golden run, its accesses recorded
   a second time by a tracer of the test's own. *)
let test_suite_defuse_matches_lists () =
  List.iter
    (fun (e : Suite.entry) ->
      let program = e.Suite.build () in
      let accesses = ref [] in
      let tracer ~cycle ~addr ~width ~kind =
        let kind =
          match (kind : Machine.access_kind) with
          | Machine.Read -> Trace.Read
          | Machine.Write -> Trace.Write
        in
        accesses := (cycle, addr, width, kind) :: !accesses
      in
      let golden = Golden.run program in
      let m = Machine.create ~tracer program in
      ignore (Machine.run m ~limit:(golden.Golden.cycles + 1));
      let oracle =
        list_analyze ~ram:program.Program.ram_size ~cycles:golden.Golden.cycles
          (List.rev !accesses)
      in
      match defuse_disagreement golden.Golden.defuse oracle with
      | None -> ()
      | Some what ->
          Alcotest.failf "%s/%s: %s differ" e.Suite.benchmark
            (Suite.variant_name e.Suite.variant) what)
    Suite.all

(* [analyze] leaves the complete partition to its first reader; two
   domains asking at once get the one array, whose experiment classes
   are the ones [analyze] built. *)
let test_full_partition_built_once () =
  let golden = Golden.run (Bin_sem2.baseline ()) in
  let d = Defuse.analyze golden.Golden.trace in
  let readers = List.init 2 (fun _ -> Domain.spawn (fun () -> Defuse.classes d)) in
  let all = List.map Domain.join readers in
  Alcotest.(check bool) "one array" true
    (List.for_all (fun a -> a == Defuse.classes d) all);
  Alcotest.(check bool) "its experiments are analyze's" true
    (List.filter
       (fun c -> c.Defuse.kind = Defuse.Experiment)
       (Array.to_list (Defuse.classes d))
    = Array.to_list (Defuse.experiment_classes d))

(* ------------------------------------------------------------------ *)
(* Ranking by injection cycle                                         *)
(* ------------------------------------------------------------------ *)

let classes_of_t_ends =
  Array.map (fun t_end ->
      { Defuse.byte = 0; t_start = 1; t_end; kind = Defuse.Experiment })

(* The index bits [Defuse.rank_by_t_end] packs beside each t_end. *)
let index_bits n =
  let b = ref 0 in
  while 1 lsl !b < n do incr b done;
  !b

(* Two kinds of t_end arrays: tie-heavy (keys in 0..k for a small k)
   and wide (keys within a few units of the packing bound). *)
let gen_t_ends =
  let open QCheck.Gen in
  let* n = int_range 0 3000 in
  let* wide = bool in
  if wide then
    let bound = max_int lsr index_bits n in
    let* spread = int_range 0 64 in
    array_repeat n (map (fun d -> bound - d) (int_range 0 spread))
  else
    let* k = int_range 0 8 in
    array_repeat n (int_range 0 k)

let qcheck_rank_is_stdlib_sort =
  QCheck.Test.make ~name:"rank_by_t_end is the stdlib heap sort over indices"
    ~count:300
    (QCheck.make
       ~print:(fun a -> Printf.sprintf "%d t_ends" (Array.length a))
       gen_t_ends)
    (fun t_end ->
      let expected = Array.init (Array.length t_end) Fun.id in
      Array.sort (fun a b -> compare t_end.(a) t_end.(b)) expected;
      Defuse.rank_by_t_end (classes_of_t_ends t_end) = expected)

let test_rank_packing_bound () =
  let raises t_ends =
    match Defuse.rank_by_t_end (classes_of_t_ends t_ends) with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  (* two classes pack one index bit *)
  let bound = max_int lsr 1 in
  Alcotest.(check (array int)) "at the bound" [| 1; 0 |]
    (Defuse.rank_by_t_end (classes_of_t_ends [| bound; 0 |]));
  Alcotest.(check bool) "oversize t_end raises" true (raises [| 0; bound + 1 |]);
  Alcotest.(check bool) "negative t_end raises" true (raises [| -1; 0 |]);
  Alcotest.(check (array int)) "empty" [||] (Defuse.rank_by_t_end [||]);
  Alcotest.(check (array int)) "one class" [| 0 |]
    (Defuse.rank_by_t_end (classes_of_t_ends [| max_int |]))

(* ------------------------------------------------------------------ *)
(* Fault-space geometry                                               *)
(* ------------------------------------------------------------------ *)

(* The memory model's raw space is the def/use partition's domain:
   [1, Δt] × [0, Δm) bytes, 8 bits each.  Every model's axes, the
   coordinate-to-slot map and the brute-force sweep are Faultspace's
   (test_faultspace.ml). *)
let two_byte_defuse () =
  let t = Trace.create ~ram_size:2 in
  Trace.add t ~cycle:3 ~addr:1 ~width:1 ~kind:Trace.Read;
  Trace.seal t ~total_cycles:12;
  Defuse.analyze t

let test_faultspace_size () =
  Alcotest.(check int) "w" (12 * 16) (Defuse.fault_space_size (two_byte_defuse ()))

let test_faultspace_contains () =
  let d = two_byte_defuse () in
  let inside cycle byte =
    match Defuse.find d ~cycle ~byte with
    | _ -> true
    | exception Invalid_argument _ -> false
  in
  Alcotest.(check bool) "inside" true (inside 1 0);
  Alcotest.(check bool) "last" true (inside 12 1);
  Alcotest.(check bool) "cycle 0" false (inside 0 0);
  Alcotest.(check bool) "cycle beyond" false (inside 13 0);
  Alcotest.(check bool) "byte beyond" false (inside 1 2)

(* An experiment class is conducted at its canonical coordinate: its
   last cycle [t_end], directly before the activating read (Figure 1b). *)
let test_canonical_injection () =
  let d = figure1_defuse () in
  let cls = (Defuse.experiment_classes d).(0) in
  Alcotest.(check int) "at the read cycle" 11 cls.Defuse.t_end;
  Alcotest.(check bool) "the read cycle is inside the class" true
    (Defuse.find d ~cycle:11 ~byte:0 = cls);
  Alcotest.(check bool) "the cycle after the read is not" true
    ((Defuse.find d ~cycle:12 ~byte:0).Defuse.kind = Defuse.Dormant);
  (* On a real program, every memory slot's canonical coordinate locates
     back to the slot, and conducting the slot is injecting there. *)
  let cell = Faultspace.analyse Faultspace.Bitflip_mem (Hi.program ()) in
  Array.iteri
    (fun i (c : Defuse.byte_class) ->
      for bit_in_byte = 0 to 7 do
        let slot = (8 * i) + bit_in_byte in
        let coord =
          { Faultspace.cycle = c.Defuse.t_end; bit = (8 * c.Defuse.byte) + bit_in_byte }
        in
        if cell.Faultspace.locate coord <> Some slot then
          Alcotest.failf "slot %d does not contain its canonical coordinate" slot;
        let fresh () = Injector.session (Injector.replay cell.Faultspace.golden) in
        if cell.Faultspace.conduct (fresh ()) c ~bit_in_byte
           <> cell.Faultspace.inject (fresh ()) coord
        then Alcotest.failf "slot %d is not conducted at its canonical coordinate" slot
      done)
    cell.Faultspace.classes

(* A raw coordinate names a byte (bit / 8) and the bit within it
   (bit mod 8); the byte and cycle pick the def/use class. *)
let test_class_and_bit () =
  let d = figure1_defuse () in
  let coord = { Faultspace.cycle = 7; bit = 5 } in
  let cls = Defuse.find d ~cycle:coord.Faultspace.cycle ~byte:(coord.Faultspace.bit / 8) in
  Alcotest.(check int) "bit in byte" 5 (coord.Faultspace.bit mod 8);
  Alcotest.(check bool) "the experiment class" true
    (cls.Defuse.kind = Defuse.Experiment && cls.Defuse.t_start = 5)

let suite =
  ( "trace",
    [
      Alcotest.test_case "trace basics" `Quick test_trace_basic;
      Alcotest.test_case "trace validation" `Quick test_trace_validation;
      Alcotest.test_case "trace unsealed" `Quick test_trace_unsealed;
      Alcotest.test_case "word expands to bytes" `Quick test_byte_expansion;
      Alcotest.test_case "trace growth" `Quick test_trace_growth;
      Alcotest.test_case "figure-1 classes" `Quick test_defuse_figure1;
      Alcotest.test_case "initial contents are defs" `Quick test_defuse_initial_read;
      Alcotest.test_case "untouched byte dormant" `Quick test_defuse_untouched_byte;
      Alcotest.test_case "back-to-back reads" `Quick test_defuse_back_to_back;
      Alcotest.test_case "find errors" `Quick test_defuse_find_errors;
      QCheck_alcotest.to_alcotest qcheck_partition_exact;
      QCheck_alcotest.to_alcotest qcheck_flat_defuse_matches_lists;
      Alcotest.test_case "suite def/use equals the list algorithm" `Quick
        test_suite_defuse_matches_lists;
      Alcotest.test_case "full partition built once across domains" `Quick
        test_full_partition_built_once;
      QCheck_alcotest.to_alcotest qcheck_rank_is_stdlib_sort;
      Alcotest.test_case "rank packing bound" `Quick test_rank_packing_bound;
      Alcotest.test_case "fault-space size" `Quick test_faultspace_size;
      Alcotest.test_case "contains" `Quick test_faultspace_contains;
      Alcotest.test_case "canonical injection" `Quick test_canonical_injection;
      Alcotest.test_case "class_and_bit" `Quick test_class_and_bit;
    ] )
