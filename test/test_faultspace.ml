(* Tests for the pluggable fault-model subsystem (lib/faultspace): tag
   codec stability, the legacy models re-homed behind the Faultspace API
   (differential against the serial Faultspace.scan on fixed and random
   programs, across backends and worker counts), burst/skip determinism
   and agreement with the replay reference, and fingerprint separation
   between models. *)

let hi_image = lazy (Hi.program ())
let hi_golden = lazy (Golden.run (Lazy.force hi_image))

let all_models =
  Faultspace.[ Bitflip_mem; Bitflip_reg; burst 3; burst ~row:2 3; Skip ]

let check_scans_identical msg serial parallel =
  Alcotest.(check bool) (msg ^ " (structural)") true (serial = parallel);
  Alcotest.(check string)
    (msg ^ " (serialised)")
    (Csv_io.to_string serial)
    (Csv_io.to_string parallel)

(* ------------------------------------------------------------------ *)
(* Tags: the stable campaign-identity codec                           *)
(* ------------------------------------------------------------------ *)

let test_tags () =
  let roundtrip m =
    match Faultspace.of_tag (Faultspace.tag m) with
    | Ok m' -> Alcotest.(check bool) (Faultspace.tag m) true (m = m')
    | Error e -> Alcotest.failf "tag %s does not parse: %s" (Faultspace.tag m) e
  in
  List.iter roundtrip
    [ Faultspace.Bitflip_mem; Faultspace.Bitflip_reg; Faultspace.burst 2;
      Faultspace.burst 8; Faultspace.burst ~row:2 3; Faultspace.burst ~row:7 4;
      Faultspace.Skip ];
  (* The legacy tags are load-bearing: journal fingerprints and cache
     keys of pre-subsystem campaigns must stay byte-identical. *)
  Alcotest.(check string) "mem tag" "mem" (Faultspace.tag Faultspace.Bitflip_mem);
  Alcotest.(check string) "reg tag" "reg" (Faultspace.tag Faultspace.Bitflip_reg);
  Alcotest.(check string) "burst tag" "burst3r2"
    (Faultspace.tag (Faultspace.burst ~row:2 3));
  Alcotest.(check bool) "legacy split" true
    (Faultspace.legacy Faultspace.Bitflip_mem
    && Faultspace.legacy Faultspace.Bitflip_reg
    && (not (Faultspace.legacy (Faultspace.burst 2)))
    && not (Faultspace.legacy Faultspace.Skip));
  List.iter
    (fun bad ->
      match Faultspace.of_tag bad with
      | Ok _ -> Alcotest.failf "tag %S must not parse" bad
      | Error _ -> ())
    [ ""; "memory"; "burst"; "burst1"; "burst9"; "burst4r1"; "burst4r9";
      "burst4r"; "burstxr2"; "skipper" ];
  List.iter
    (fun f -> try ignore (f ()); Alcotest.fail "must raise" with
       Invalid_argument _ -> ())
    [ (fun () -> Faultspace.burst 1); (fun () -> Faultspace.burst 9);
      (fun () -> Faultspace.burst ~row:1 4);
      (fun () -> Faultspace.burst ~row:8 4) ]

(* ------------------------------------------------------------------ *)
(* Legacy models behind the new API: bit-identical re-homing          *)
(* ------------------------------------------------------------------ *)

let test_mem_cell_matches_legacy () =
  let golden = Lazy.force hi_golden in
  let cell = Faultspace.of_golden Faultspace.Bitflip_mem golden in
  Alcotest.(check bool) "classes are the def/use partition" true
    (cell.Faultspace.classes = Defuse.experiment_classes golden.Golden.defuse);
  Alcotest.(check int) "benign weight"
    (Defuse.known_benign_weight golden.Golden.defuse)
    cell.Faultspace.benign_weight;
  Alcotest.(check int) "ram bytes"
    golden.Golden.program.Program.ram_size cell.Faultspace.ram_bytes;
  Alcotest.(check int) "experiments"
    (Defuse.experiment_count golden.Golden.defuse)
    (Faultspace.experiments cell)

let test_burst_shares_mem_partition () =
  (* A burst never leaves the addressed byte, so the def/use pruning —
     classes, weights, benign weight — is exactly the memory model's. *)
  let golden = Lazy.force hi_golden in
  let mem = Faultspace.of_golden Faultspace.Bitflip_mem golden in
  let b = Faultspace.of_golden (Faultspace.burst ~row:2 3) golden in
  Alcotest.(check bool) "same classes" true
    (mem.Faultspace.classes = b.Faultspace.classes);
  Alcotest.(check int) "same benign weight" mem.Faultspace.benign_weight
    b.Faultspace.benign_weight;
  Alcotest.(check int) "same ram bytes" mem.Faultspace.ram_bytes
    b.Faultspace.ram_bytes

(* Brute force against pruning: every raw coordinate, injected alone on
   a replay session, must end as the cell's pruned scan says it does
   once expanded over the raw space — a-priori-benign coordinates
   included.  Returns how many coordinates fail. *)
let check_brute_force label cell =
  let scan = Faultspace.scan cell in
  let brute = Faultspace.brute_force cell in
  Alcotest.(check int) (label ^ ": every coordinate") (Faultspace.space cell)
    (Array.length brute);
  Array.fold_left
    (fun failures ((coord : Faultspace.coord), brute) ->
      let pruned = Faultspace.outcome_at cell scan coord in
      if brute <> pruned then
        Alcotest.failf "%s at (%d, %d): pruned %s, brute force %s" label
          coord.Faultspace.cycle coord.Faultspace.bit (Outcome.to_string pruned)
          (Outcome.to_string brute);
      if Outcome.is_failure brute then failures + 1 else failures)
    0 brute

let test_burst_brute_force () =
  let golden = Lazy.force hi_golden in
  List.iter
    (fun model ->
      let tag = Faultspace.tag model in
      let failures = check_brute_force tag (Faultspace.of_golden model golden) in
      Alcotest.(check bool) (tag ^ ": some bursts fail") true (failures > 0))
    [ Faultspace.burst 3; Faultspace.burst ~row:2 3 ]

(* The same check for all five models on hi, on hi+dft (12 cycles, so
   skip pads 4 slots) and on hi+pad (two unused RAM bytes, dormant
   rows).  Each model's geometry counts its own raw space. *)
let test_every_model_brute_force () =
  List.iter
    (fun (name, image) ->
      List.iter
        (fun model ->
          let label = name ^ "@" ^ Faultspace.tag model in
          let cell = Faultspace.analyse model image in
          let failures = check_brute_force label cell in
          Alcotest.(check bool) (label ^ ": some faults fail") true (failures > 0))
        all_models)
    [ ("hi", Hi.program ()); ("hi+dft", Hi.dft ());
      ("hi+pad", Hi.dft_memory ()) ]

(* ------------------------------------------------------------------ *)
(* Geometry: locate, canonical coordinates, bounds, draws             *)
(* ------------------------------------------------------------------ *)

(* The coordinate a slot is conducted at: a byte class's t_end, a skip
   slot's own cycle. *)
let canonical model (cell : Faultspace.cell) slot =
  match model with
  | Faultspace.Skip -> { Faultspace.cycle = slot + 1; bit = 0 }
  | _ ->
      let c = cell.Faultspace.classes.(slot / 8) in
      { Faultspace.cycle = c.Defuse.t_end; bit = (8 * c.Defuse.byte) + (slot mod 8) }

let test_locate () =
  (* Hi's memory space: msg[0] (bits 0-7) is an experiment class over
     cycles 2-4, msg[1] (bits 8-15) over 4-6; the rest is benign. *)
  let mem = Faultspace.of_golden Faultspace.Bitflip_mem (Lazy.force hi_golden) in
  let at cycle bit = mem.Faultspace.locate { Faultspace.cycle; bit } in
  Alcotest.(check (option int)) "msg[0] bit 5 mid-class" (Some 5) (at 3 5);
  Alcotest.(check (option int)) "msg[1] bit 1 at its read" (Some 9) (at 6 9);
  Alcotest.(check (option int)) "msg[1] bit 0 right after its write" (Some 8)
    (at 4 8);
  Alcotest.(check (option int)) "overwritten" None (at 1 0);
  Alcotest.(check (option int)) "dormant" None (at 7 12);
  List.iter
    (fun model ->
      let tag = Faultspace.tag model in
      let cell = Faultspace.analyse model (Hi.dft ()) in
      let cycles = cell.Faultspace.golden.Golden.cycles in
      (* Every real slot's canonical coordinate locates back to it, and
         conducting the slot is injecting there. *)
      for slot = 0 to cell.Faultspace.slots - 1 do
        let coord = canonical model cell slot in
        if cell.Faultspace.locate coord <> Some slot then
          Alcotest.failf "%s: slot %d does not contain its canonical coordinate"
            tag slot;
        let fresh () = Injector.session (Injector.replay cell.Faultspace.golden) in
        let conducted =
          cell.Faultspace.conduct (fresh ()) cell.Faultspace.classes.(slot / 8)
            ~bit_in_byte:(slot mod 8)
        in
        if conducted <> cell.Faultspace.inject (fresh ()) coord then
          Alcotest.failf "%s: slot %d is not conducted at its canonical coordinate"
            tag slot
      done;
      List.iter
        (fun (cycle, bit) ->
          match cell.Faultspace.locate { Faultspace.cycle; bit } with
          | _ -> Alcotest.failf "%s: (%d, %d) is outside the space" tag cycle bit
          | exception Invalid_argument _ -> ())
        [ (0, 0); (cycles + 1, 0); (1, cell.Faultspace.rows); (1, -1) ])
    all_models

(* Every model's [inject] checks its coordinate as [locate] does:
   outside [1, Δt] × [0, rows) both raise the same Invalid_argument, on
   a fresh session (so a cycle-0 injection is refused for its bounds,
   not for running backwards). *)
let test_inject_bounds () =
  List.iter
    (fun (name, image) ->
      List.iter
        (fun model ->
          let cell = Faultspace.analyse model image in
          let cycles = cell.Faultspace.golden.Golden.cycles in
          let rows = cell.Faultspace.rows in
          List.iter
            (fun (cycle, bit) ->
              let label =
                Printf.sprintf "%s@%s (%d, %d)" name (Faultspace.tag model)
                  cycle bit
              in
              let coord = { Faultspace.cycle; bit } in
              let expected =
                Printf.sprintf "Faultspace: coordinate (%d, %d) outside %d x %d"
                  cycle bit cycles rows
              in
              Alcotest.check_raises (label ^ " locate")
                (Invalid_argument expected) (fun () ->
                  ignore (cell.Faultspace.locate coord));
              let session =
                Injector.session (Injector.replay cell.Faultspace.golden)
              in
              match cell.Faultspace.inject session coord with
              | o ->
                  Alcotest.failf "%s: inject returned %s" label
                    (Outcome.to_string o)
              | exception Invalid_argument msg ->
                  Alcotest.(check string) (label ^ " inject") expected msg)
            [ (0, 0); (cycles + 1, 0); (1, -1); (1, rows) ])
        all_models)
    [ ("hi", Hi.program ()); ("hi+dft", Hi.dft ()) ]

let test_draws () =
  List.iter
    (fun model ->
      let tag = Faultspace.tag model in
      let cell = Faultspace.analyse model (Hi.dft ()) in
      let check name (draw : Sampler.draw) ~population ~benign ~bound =
        Alcotest.(check int) (tag ^ " " ^ name ^ " population") population
          draw.Sampler.population;
        Alcotest.(check int) (tag ^ " " ^ name ^ " samples") 500
          (Array.length draw.Sampler.slots);
        Array.iter
          (function
            | None when benign -> ()
            | None -> Alcotest.failf "%s %s: drew a benign coordinate" tag name
            | Some s when s >= 0 && s < bound -> ()
            | Some s -> Alcotest.failf "%s %s: slot %d out of range" tag name s)
          draw.Sampler.slots
      in
      let rng = Prng.create ~seed:3L in
      let space = Faultspace.space cell in
      check "raw" (Sampler.uniform_raw rng ~samples:500 cell) ~population:space
        ~benign:true ~bound:cell.Faultspace.slots;
      check "effective"
        (Sampler.uniform_effective rng ~samples:500 cell)
        ~population:(space - cell.Faultspace.benign_weight) ~benign:false
        ~bound:cell.Faultspace.slots;
      check "biased"
        (Sampler.biased_per_class rng ~samples:500 cell)
        ~population:space ~benign:false ~bound:(Faultspace.experiments cell))
    all_models

(* A small compiled MIR kernel: a counted loop over a 3-element array,
   its trip count and constants derived from [seed]. *)
let loop_image seed =
  let open Builder in
  let k = 1 + (seed mod 5) in
  Codegen.compile
    (prog
       ~name:(Printf.sprintf "fsrand%d" seed)
       [ global "acc" ~init:[ seed mod 7 ]; array "buf" 3 ~init:[ 1; 2; 3 ] ]
       [
         func "main" ~locals:[ "i" ]
           (for_ "i" ~from:(i 0) ~below:(i k)
              [
                setg "acc" (g "acc" +: elem "buf" (l "i" %: i 3));
                set_elem "buf" (l "i" %: i 3) (g "acc" ^: i seed);
              ]
           @ [ out (g "acc" &: i 255); ret_unit ]);
       ])

(* Legacy spaces through the Faultspace-powered engine == the serial
   legacy conductors, on random compiled MIR programs, across worker
   counts and the in-process/fork-exec backends. *)
let qcheck_legacy_models_differential =
  QCheck.Test.make
    ~name:"faultspace mem/reg = legacy serial scans on random programs"
    ~count:3
    QCheck.(triple (int_bound 1000) (int_range 1 4) (int_range 1 9))
    (fun (seed, jobs, shard_size) ->
      let image = loop_image seed in
      let golden = Golden.run image in
      let policy = Spec.make_policy ~shard_size () in
      let mem_serial = Faultspace.(scan (of_golden Bitflip_mem golden)) in
      let reg_serial = Faultspace.(scan (of_golden Bitflip_reg golden)) in
      List.for_all
        (fun backend ->
          mem_serial
          = Drive.scan ~backend ~jobs
              (Spec.of_golden ~policy ~model:Faultspace.Bitflip_mem golden)
          && reg_serial
             = Drive.scan ~backend ~jobs
                 (Spec.of_golden ~policy ~model:Faultspace.Bitflip_reg golden))
        [ Pool.Domains; Pool.Processes ])

(* ------------------------------------------------------------------ *)
(* Instruction skip: machine-level semantics                          *)
(* ------------------------------------------------------------------ *)

let test_skip_next_semantics () =
  let image = Lazy.force hi_image in
  let m = Machine.create image in
  (* Skipping the first instruction must advance pc and cycle without
     executing it: no register writes, no stores, no output. *)
  let pc0 = Machine.pc m and cyc0 = Machine.cycle m in
  let regs0 = Array.init 16 (fun r -> Machine.reg m (Isa.reg r)) in
  Machine.skip_next m;
  Alcotest.(check int) "pc advanced" (pc0 + 1) (Machine.pc m);
  Alcotest.(check int) "cycle burned" (cyc0 + 1) (Machine.cycle m);
  Array.iteri
    (fun r v ->
      Alcotest.(check int32)
        (Printf.sprintf "r%d untouched" r)
        v
        (Machine.reg m (Isa.reg r)))
    regs0;
  Alcotest.(check string) "no output" "" (Machine.serial_output m);
  (* The skipped program still terminates (the machine keeps stepping
     from the next instruction). *)
  ignore (Machine.run m ~limit:100_000);
  Alcotest.(check bool) "terminates" true (Machine.stopped m <> None)

(* ------------------------------------------------------------------ *)
(* Skip and burst through the engine: geometry and determinism        *)
(* ------------------------------------------------------------------ *)

let test_skip_cell_geometry () =
  let golden = Lazy.force hi_golden in
  let cell = Faultspace.of_golden Faultspace.Skip golden in
  let cycles = golden.Golden.cycles in
  let n = Array.length cell.Faultspace.classes in
  Alcotest.(check int) "ceil(cycles/8) classes" ((cycles + 7) / 8) n;
  Alcotest.(check int) "synthetic row footprint" n cell.Faultspace.ram_bytes;
  Alcotest.(check int) "no a-priori pruning" 0 cell.Faultspace.benign_weight;
  Alcotest.(check int) "8 slots per class" (8 * n)
    (Faultspace.experiments cell);
  Array.iteri
    (fun i (c : Defuse.byte_class) ->
      if not (c.Defuse.byte = i && c.Defuse.t_start = (8 * i) + 1
              && c.Defuse.t_end = c.Defuse.t_start
              && c.Defuse.kind = Defuse.Experiment) then
        Alcotest.failf "class %d malformed" i)
    cell.Faultspace.classes

let skip_scan_serial = lazy
  (Drive.scan ~jobs:1
     (Spec.of_golden ~model:Faultspace.Skip (Lazy.force hi_golden)))

let test_skip_campaign () =
  let golden = Lazy.force hi_golden in
  let serial = Lazy.force skip_scan_serial in
  let cycles = golden.Golden.cycles in
  let padding = (8 * ((cycles + 7) / 8)) - cycles in
  Alcotest.(check int) "one experiment per cycle (plus padding)"
    (cycles + padding)
    (Array.length serial.Scan.experiments);
  (* Padding slots past the golden runtime are benign by construction. *)
  let no_effect =
    Array.fold_left
      (fun n (e : Scan.experiment) ->
        if e.Scan.outcome = Outcome.No_effect then n + 1 else n)
      0 serial.Scan.experiments
  in
  Alcotest.(check bool) "padding is No_effect" true (no_effect >= padding);
  (* Skipping instructions of a working program must break something —
     an all-benign skip campaign would mean the conductor never actually
     skipped. *)
  Alcotest.(check bool) "some skips matter" true
    (Array.exists
       (fun (e : Scan.experiment) -> e.Scan.outcome <> Outcome.No_effect)
       serial.Scan.experiments)

let test_new_models_deterministic () =
  (* Burst and skip campaigns must be bit-identical across worker counts
     and across the in-process and fork/exec backends. *)
  let golden = Lazy.force hi_golden in
  List.iter
    (fun model ->
      let spec () =
        Spec.of_golden ~policy:(Spec.make_policy ~shard_size:4 ()) ~model
          golden
      in
      let tag = Faultspace.tag model in
      let serial = Drive.scan ~jobs:1 (spec ()) in
      List.iter
        (fun jobs ->
          check_scans_identical
            (Printf.sprintf "%s domains -j %d" tag jobs)
            serial
            (Drive.scan ~jobs (spec ())))
        [ 2; 4 ];
      check_scans_identical
        (Printf.sprintf "%s processes -j 2" tag)
        serial
        (Drive.scan ~backend:Pool.Processes ~jobs:2 (spec ())))
    [ Faultspace.burst 2; Faultspace.burst ~row:2 3; Faultspace.Skip ]

let test_new_models_over_sockets () =
  (* One remote round per new model: the wire job carries the model, the
     daemon re-analyses and must agree bit-for-bit. *)
  match Remote.spawn_daemon Remote.daemon
          { Remote.default_config with workers = 2 } with
  | Error e -> Alcotest.fail e
  | Ok (pid, addr) ->
      Fun.protect
        ~finally:(fun () -> Remote.kill_daemon pid)
        (fun () ->
          let golden = Lazy.force hi_golden in
          List.iter
            (fun model ->
              let spec () =
                Spec.of_golden ~policy:(Spec.make_policy ~shard_size:4 ())
                  ~model golden
              in
              check_scans_identical
                (Printf.sprintf "%s sockets" (Faultspace.tag model))
                (Drive.scan ~jobs:1 (spec ()))
                (Drive.scan
                   ~backend:(Pool.Sockets [ Addr.to_string addr ])
                   ~jobs:2 (spec ())))
            [ Faultspace.burst 2; Faultspace.Skip ])

(* Burst and skip against the replay reference.  Every backend conducts
   through the checkpoint plan, so backend agreement alone cannot catch a
   plan shortcut that misclassifies these models; the serial reference
   over [Injector.replay] restarts every experiment from reset.  A small
   checkpoint stride makes the plan's shortcuts fire on small kernels. *)
let test_new_models_plan_vs_replay () =
  List.iter
    (fun (name, image) ->
      let golden = Golden.run image in
      List.iter
        (fun model ->
          let reference =
            Faultspace.(scan (with_stride 0 (of_golden model golden)))
          in
          let spec =
            Spec.of_golden
              ~policy:(Spec.make_policy ~shard_size:4 ~checkpoint_stride:8 ())
              ~model golden
          in
          List.iter
            (fun (label, backend) ->
              check_scans_identical
                (Printf.sprintf "%s %s %s plan = replay" name
                   (Faultspace.tag model) label)
                reference
                (Drive.scan ~backend ~jobs:2 spec))
            [ ("domains", Pool.Domains); ("processes", Pool.Processes) ])
        [ Faultspace.burst 3; Faultspace.burst ~row:2 3; Faultspace.Skip ])
    [ ("hi", Lazy.force hi_image); ("loop", loop_image 17) ]

(* ------------------------------------------------------------------ *)
(* The cell's provider                                                *)
(* ------------------------------------------------------------------ *)

(* The domains backend forces a cell's provider from every domain at
   once: all of them get the one ladder.  flag1's ladder takes long
   enough to build that the four calls overlap (a [Lazy.t] provider
   fails here with [Undefined]).  A [with_stride] cell has a provider of
   its own, so its experiments count only there. *)
let test_cell_provider () =
  let cell =
    Faultspace.of_golden Faultspace.Bitflip_mem
      (Golden.run
         ((Option.get (Suite.find ~benchmark:"flag1" ~variant:Suite.Baseline))
            .Suite.build ()))
  in
  let ready = Atomic.make 0 in
  let force () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do
      Domain.cpu_relax ()
    done;
    cell.Faultspace.provider ()
  in
  let providers =
    List.map Domain.join (List.init 4 (fun _ -> Domain.spawn force))
  in
  let p = cell.Faultspace.provider () in
  Alcotest.(check bool) "4 domains, one provider" true
    (List.for_all (fun q -> q == p) providers);
  let planned = Faultspace.with_stride 8 cell
  and replay = Faultspace.with_stride 0 cell in
  let provider c = c.Faultspace.provider () in
  Alcotest.(check bool) "with_stride gives providers of their own" true
    (provider planned != p
    && provider replay != p
    && provider planned != provider replay);
  let conducted c =
    Array.fold_left ( + ) 0 (Injector.counts (provider c)).Injector.experiments
  in
  (* one class's 8 slots: a single injection cycle *)
  let slots = Array.init 8 Fun.id in
  ignore (Faultspace.conduct_slots planned slots);
  Alcotest.(check (list int)) "stride 8 counts only there" [ 8; 0; 0 ]
    (List.map conducted [ planned; cell; replay ]);
  ignore (Faultspace.conduct_slots replay slots);
  Alcotest.(check (list int)) "replay counts only there" [ 8; 0; 8 ]
    (List.map conducted [ planned; cell; replay ])

(* ------------------------------------------------------------------ *)
(* Fingerprints: the model is part of the campaign identity           *)
(* ------------------------------------------------------------------ *)

let test_model_fingerprints_distinct () =
  let golden = Lazy.force hi_golden in
  let fp model = Engine.fingerprint_spec (Spec.of_golden ~model golden) in
  let fps =
    List.map fp
      [ Faultspace.Bitflip_mem; Faultspace.Bitflip_reg; Faultspace.burst 2;
        Faultspace.burst 3; Faultspace.burst ~row:2 3; Faultspace.Skip ]
  in
  let distinct = List.sort_uniq compare fps in
  Alcotest.(check int) "all models fingerprint apart" (List.length fps)
    (List.length distinct)

(* ------------------------------------------------------------------ *)
(* Accounting: every model's scan sums to its own space               *)
(* ------------------------------------------------------------------ *)

(* Σ weighted histogram = experiment_total = the model's space size,
   with the size computed here from the golden run alone: Δt × 8·Δm
   bit-cycles for the memory models, Δt × 480 for registers, Δt cycles
   for skip.  hi+dft runs 12 cycles, so its skip cell pads 4 slots. *)
let test_accounting_invariant () =
  List.iter
    (fun (name, image) ->
      let golden = Golden.run image in
      let cycles = golden.Golden.cycles in
      List.iter
        (fun model ->
          let label = name ^ "@" ^ Faultspace.tag model in
          let cell = Faultspace.analyse model image in
          let space, experiments =
            match model with
            | Faultspace.Skip -> (cycles, cycles)
            | Faultspace.Bitflip_reg ->
                (cycles * 8 * Regspace.pseudo_ram_bytes, Faultspace.experiments cell)
            | Faultspace.Bitflip_mem | Faultspace.Burst _ ->
                (cycles * 8 * image.Program.ram_size, Faultspace.experiments cell)
          in
          Alcotest.(check int) (label ^ ": cell space") space (Faultspace.space cell);
          let spec = Spec.of_golden ~model golden in
          List.iter
            (fun (path, scan) ->
              let label = label ^ " " ^ path in
              let sum policy =
                List.fold_left (fun n (_, k) -> n + k) 0
                  (Metrics.outcome_histogram ~policy scan)
              in
              Alcotest.(check int) (label ^ ": experiment_total") space
                (Metrics.experiment_total scan);
              Alcotest.(check int) (label ^ ": weighted histogram") space
                (sum Accounting.correct);
              Alcotest.(check int) (label ^ ": unweighted experiments")
                experiments
                (Metrics.experiment_total ~policy:Accounting.pitfall1 scan);
              Alcotest.(check int) (label ^ ": unweighted histogram")
                experiments (sum Accounting.pitfall1))
            [ ("serial", Faultspace.scan cell); ("engine", Drive.scan ~jobs:1 spec) ])
        all_models)
    [ ("hi", Hi.program ()); ("hi+dft", Hi.dft ());
      ("flag1", Flag1.baseline ()) ]

(* ------------------------------------------------------------------ *)
(* One golden run is the analysed source of every model               *)
(* ------------------------------------------------------------------ *)

(* Every model's cell of one golden run scans as the cell analysed from
   the image, and the whole sweep records at most one register trace:
   the register partition and every checkpoint ladder share it. *)
let test_one_golden_every_model () =
  List.iter
    (fun (name, image) ->
      let golden = Golden.run image in
      let n0 = Golden.register_replays () in
      let shared =
        List.map (fun m -> Faultspace.(scan (of_golden m golden))) all_models
      in
      Alcotest.(check bool)
        (name ^ ": one register trace for every model")
        true
        (Golden.register_replays () - n0 <= 1);
      List.iter2
        (fun m scan ->
          check_scans_identical
            (name ^ "@" ^ Faultspace.tag m ^ ": of_golden = analyse")
            (Faultspace.scan (Faultspace.analyse m image))
            scan)
        all_models shared)
    [ ("hi", Hi.program ()); ("flag1", Flag1.baseline ()) ]

let suite =
  ( "faultspace",
    [
      Alcotest.test_case "model tags roundtrip and validate" `Quick test_tags;
      Alcotest.test_case "mem cell = legacy def/use partition" `Quick
        test_mem_cell_matches_legacy;
      Alcotest.test_case "burst shares the mem partition" `Quick
        test_burst_shares_mem_partition;
      Alcotest.test_case "every model's pruning = brute force (hi, hi+dft, hi+pad)"
        `Quick test_every_model_brute_force;
      Alcotest.test_case "locate: slots, canonical coordinates, bounds" `Quick
        test_locate;
      Alcotest.test_case "inject checks bounds as locate does" `Quick
        test_inject_bounds;
      Alcotest.test_case "samplers draw slots of the cell" `Quick test_draws;
      Alcotest.test_case "burst pruning = brute force (hi)" `Quick
        test_burst_brute_force;
      QCheck_alcotest.to_alcotest qcheck_legacy_models_differential;
      Alcotest.test_case "skip_next machine semantics" `Quick
        test_skip_next_semantics;
      Alcotest.test_case "skip cell geometry" `Quick test_skip_cell_geometry;
      Alcotest.test_case "skip campaign conducts every cycle" `Quick
        test_skip_campaign;
      Alcotest.test_case "burst/skip deterministic across backends" `Slow
        test_new_models_deterministic;
      Alcotest.test_case "burst/skip over the sockets backend" `Slow
        test_new_models_over_sockets;
      Alcotest.test_case "burst/skip plan = replay reference" `Quick
        test_new_models_plan_vs_replay;
      Alcotest.test_case "cell provider: one per cell, domain-safe" `Quick
        test_cell_provider;
      Alcotest.test_case "model fingerprints distinct" `Quick
        test_model_fingerprints_distinct;
      Alcotest.test_case "every model's scan sums to its space" `Quick
        test_accounting_invariant;
      Alcotest.test_case "one golden run gives every model's cell" `Quick
        test_one_golden_every_model;
    ] )
