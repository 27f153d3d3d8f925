(* Worker-crash torture tests for the process and sockets backends —
   the slow, adversarial matrix kept out of @tier1 and run by
   `dune build @torture` (see DESIGN.md §7): every crash mode (clean
   nonzero exit, uncaught exception, SIGKILL between shards, SIGKILL
   mid-append, hang, stall, poisoned shard) injected into journaled
   campaigns, on fixed fixtures and on qcheck-random programs, asserting
   the same properties — the parent reports the death, the campaign
   journal stays CRC-valid, and either supervision heals the campaign in
   place (bit-identical to the serial scan, no manual --resume) or a
   --resume run completes bit-identically.  The same matrix then runs
   over TCP (loopback daemons, DESIGN.md §11): crash modes injected into
   remote conducting workers, half-open peers, and a whole fleet
   SIGKILLed mid-campaign with --resume healing the journal.

   `dune build @torture-smoke` sets FI_TORTURE_SMOKE=1 and runs only
   the fast representative subset (one test per supervision mechanism,
   a few seconds total). *)

let () = Worker.guard ()
let () = Remote.guard ()
let () = Service.guard ()

let smoke = Sys.getenv_opt "FI_TORTURE_SMOKE" = Some "1"

let hi_golden = lazy (Golden.run (Hi.program ()))
let hi_serial =
  lazy Faultspace.(scan (of_golden Bitflip_mem (Lazy.force hi_golden)))
let flag1_golden = lazy (Golden.run (Flag1.baseline ()))
let flag1_serial =
  lazy Faultspace.(scan (of_golden Bitflip_mem (Lazy.force flag1_golden)))

let check_scans_identical msg serial parallel =
  Alcotest.(check bool) (msg ^ " (structural)") true (serial = parallel);
  Alcotest.(check string)
    (msg ^ " (serialised)")
    (Csv_io.to_string serial)
    (Csv_io.to_string parallel)

let with_temp_file f =
  let path = Filename.temp_file "fitorture" ".journal" in
  Fun.protect
    ~finally:(fun () ->
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let with_torture value f =
  Unix.putenv Worker.torture_var value;
  Fun.protect ~finally:(fun () -> Unix.putenv Worker.torture_var "") f

let policy ~journal ?(resume = false) ?shard_size () =
  Spec.make_policy ~journal ~resume ?shard_size ()

(* ------------------------------------------------------------------ *)
(* Differential: Processes = serial on the fixtures, any -j           *)
(* ------------------------------------------------------------------ *)

let test_differential_fixtures () =
  List.iter
    (fun (name, serial, golden) ->
      List.iter
        (fun jobs ->
          check_scans_identical
            (Printf.sprintf "%s processes -j %d" name jobs)
            (Lazy.force serial)
            (Drive.scan ~backend:Pool.Processes ~jobs
               (Spec.of_golden (Lazy.force golden))))
        [ 1; 2; 3 ])
    [ ("hi", hi_serial, hi_golden); ("flag1", flag1_serial, flag1_golden) ]

(* ------------------------------------------------------------------ *)
(* The crash matrix                                                   *)
(* ------------------------------------------------------------------ *)

(* Inject [mode] into every worker after one completed shard, over a
   journaled 2-worker flag1 campaign with one class per shard; then
   resume with the hook cleared. *)
let crash_round_trip mode =
  let serial = Lazy.force flag1_serial in
  let golden = Lazy.force flag1_golden in
  with_temp_file (fun path ->
      let spec resume =
        Spec.of_golden
          ~policy:(policy ~journal:path ~resume ~shard_size:1 ())
          golden
      in
      (match
         with_torture
           (Printf.sprintf "%s:1" mode)
           (fun () ->
             Drive.scan ~backend:Pool.Processes ~jobs:2 (spec false))
       with
      | _ -> Alcotest.failf "%s: expected Worker_failed" mode
      | exception Engine.Worker_failed msg ->
          Alcotest.(check bool)
            (mode ^ ": failure names the cell") true
            (String.length msg > 0
            && String.starts_with ~prefix:"flag1" msg));
      (* The campaign journal holds the shards completed before the
         crash — CRC-valid to the last byte: only the parent writes it,
         and a dying worker's cut-short or CRC-invalid record is never
         merged. *)
      (match Journal.replay path with
      | Some (_, records, Journal.Clean) ->
          Alcotest.(check bool)
            (mode ^ ": progress was journalled") true
            (List.length records >= 1)
      | Some (_, _, _) ->
          Alcotest.failf "%s: campaign journal not clean after crash" mode
      | None -> Alcotest.failf "%s: campaign journal unreadable" mode);
      let snap = ref None in
      let resumed =
        Drive.scan ~backend:Pool.Processes ~jobs:2
          ~observe:(fun s -> snap := Some s)
          (spec true)
      in
      check_scans_identical (mode ^ ": crash + resume = serial") serial resumed;
      match !snap with
      | None -> Alcotest.fail "observe never called"
      | Some s ->
          Alcotest.(check bool)
            (mode ^ ": resumed without re-conducting") true
            (s.Progress.resumed_classes > 0))

let test_crash_exit () = crash_round_trip "exit"
let test_crash_raise () = crash_round_trip "raise"
let test_crash_sigkill () = crash_round_trip "sigkill"
let test_crash_torn () = crash_round_trip "torn"

(* A worker killed before conducting anything: the whole cell replays. *)
let test_crash_immediately () =
  let serial = Lazy.force hi_serial in
  let golden = Lazy.force hi_golden in
  with_temp_file (fun path ->
      (match
         with_torture "sigkill:0" (fun () ->
             Drive.scan ~backend:Pool.Processes ~jobs:2
               (Spec.of_golden
                  ~policy:(policy ~journal:path ~shard_size:1 ())
                  golden))
       with
      | _ -> Alcotest.fail "expected Worker_failed"
      | exception Engine.Worker_failed _ -> ());
      let resumed =
        Drive.scan ~backend:Pool.Processes ~jobs:2
          (Spec.of_golden
             ~policy:(policy ~journal:path ~resume:true ~shard_size:1 ())
             golden)
      in
      check_scans_identical "immediate kill + resume" serial resumed)

(* Stride churn across a crash: the checkpoint stride is excluded from
   the journal fingerprint, so a campaign whose workers were SIGKILLed
   under one snapshot-ladder stride must --resume under a different one
   (here: fine ladder before the crash, replay semantics after) without
   Journal_mismatch and to the bit-identical result. *)
let test_crash_stride_churn () =
  let serial = Lazy.force flag1_serial in
  let golden = Lazy.force flag1_golden in
  with_temp_file (fun path ->
      let spec ~resume ~stride =
        Spec.of_golden
          ~policy:
            (Spec.make_policy ~journal:path ~resume ~shard_size:1
               ~checkpoint_stride:stride ())
          golden
      in
      (match
         with_torture "sigkill:1" (fun () ->
             Drive.scan ~backend:Pool.Processes ~jobs:2
               (spec ~resume:false ~stride:8))
       with
      | _ -> Alcotest.fail "expected Worker_failed"
      | exception Engine.Worker_failed _ -> ());
      let snap = ref None in
      let resumed =
        Drive.scan ~backend:Pool.Processes ~jobs:2
          ~observe:(fun s -> snap := Some s)
          (spec ~resume:true ~stride:0)
      in
      check_scans_identical "crash at stride 8, resume at stride 0" serial
        resumed;
      match !snap with
      | None -> Alcotest.fail "observe never called"
      | Some s ->
          Alcotest.(check bool) "kept the pre-crash shards" true
            (s.Progress.resumed_classes > 0))

(* ------------------------------------------------------------------ *)
(* qcheck: random programs under the crash matrix                     *)
(* ------------------------------------------------------------------ *)

let random_golden seed =
  let open Builder in
  let k = 1 + (seed mod 5) in
  let source =
    prog
      ~name:(Printf.sprintf "trand%d" seed)
      [ global "acc" ~init:[ seed mod 11 ]; array "buf" 4 ~init:[ 2; 7; 1; 8 ] ]
      [
        func "main" ~locals:[ "i" ]
          (for_ "i" ~from:(i 0) ~below:(i k)
             [
               setg "acc" (g "acc" +: elem "buf" (l "i" %: i 4));
               set_elem "buf" (l "i" %: i 4) (g "acc" ^: i seed);
             ]
          @ [ out (g "acc" &: i 255); ret_unit ]);
      ]
  in
  Golden.run (Codegen.compile source)

let qcheck_differential_memory =
  QCheck.Test.make
    ~name:"torture: processes = serial on random programs (memory)" ~count:6
    QCheck.(pair (int_bound 10_000) (int_range 1 3))
    (fun (seed, jobs) ->
      let golden = random_golden seed in
      Faultspace.(scan (of_golden Bitflip_mem golden))
      = Drive.scan ~backend:Pool.Processes ~jobs (Spec.of_golden golden))

let qcheck_differential_registers =
  QCheck.Test.make
    ~name:"torture: processes = serial on random programs (registers)"
    ~count:4
    QCheck.(pair (int_bound 10_000) (int_range 1 3))
    (fun (seed, jobs) ->
      let open Builder in
      let source =
        prog
          ~name:(Printf.sprintf "rrand%d" seed)
          [ global "x" ~init:[ seed mod 13 ] ]
          [
            func "main" ~locals:[]
              [ setg "x" (g "x" *: i 3 +: i (seed mod 5));
                out (g "x" &: i 255); ret_unit ];
          ]
      in
      let golden = Golden.run (Codegen.compile source) in
      Faultspace.(scan (of_golden Bitflip_reg golden))
      = Drive.scan ~backend:Pool.Processes ~jobs
          (Spec.of_golden ~model:Faultspace.Bitflip_reg golden))

(* ------------------------------------------------------------------ *)
(* Supervision: heal, exhaust, quarantine — and compose with resume   *)
(* ------------------------------------------------------------------ *)

let sup_policy ?journal ?(resume = false) ?shard_size ?shard_timeout
    ?(max_retries = 2) ?(quarantine = false) () =
  Spec.make_policy ?journal ~resume ?shard_size ?shard_timeout ~max_retries
    ~quarantine ()

(* Every worker wedges (silently, or chattily for [stall]) after its
   first completed shard — including retry workers.  Supervision must
   kill each one on deadline and keep re-dispatching until the campaign
   completes bit-identically, with no manual --resume and nothing
   quarantined: the fault is transient per worker, not tied to a
   shard. *)
let supervised_heal torture =
  let serial = Lazy.force hi_serial in
  let golden = Lazy.force hi_golden in
  let snap = ref None in
  let result =
    with_torture torture (fun () ->
        Drive.cell ~backend:Pool.Processes ~jobs:2
          ~observe:(fun s -> snap := Some s)
          (Spec.of_golden
             ~policy:(sup_policy ~shard_size:1 ~shard_timeout:0.4 ())
             golden))
  in
  check_scans_identical (torture ^ ": supervision healed in place") serial
    result.Engine.scan;
  Alcotest.(check int) (torture ^ ": nothing quarantined") 0
    (List.length result.Engine.quarantined);
  match !snap with
  | None -> Alcotest.fail "observe never called"
  | Some s ->
      Alcotest.(check bool) (torture ^ ": workers were killed") true
        (s.Progress.kills >= 1)

let test_heal_hang () = supervised_heal "hang:1"
let test_heal_stall () = supervised_heal "stall:1"

(* A shard that kills every worker it is assigned to, with quarantine
   OFF: the retry budget must be spent (journaled as supervision
   records), the campaign must fail loudly naming the exhausted shard —
   and a clean --resume run must then heal bit-identically, proving
   retry and resume compose. *)
let test_retry_exhaustion_then_resume () =
  let serial = Lazy.force hi_serial in
  let golden = Lazy.force hi_golden in
  with_temp_file (fun path ->
      (match
         with_torture "poison:0" (fun () ->
             Drive.scan ~backend:Pool.Processes ~jobs:2
               (Spec.of_golden
                  ~policy:
                    (sup_policy ~journal:path ~shard_size:1 ~max_retries:1 ())
                  golden))
       with
      | _ -> Alcotest.fail "expected Worker_failed on budget exhaustion"
      | exception Engine.Worker_failed msg ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec scan i =
              i + nn <= nh
              && (String.sub hay i nn = needle || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool) "failure names the exhausted budget" true
            (contains msg "retry budget exhausted"));
      (* The journal stayed clean and recorded the retry decisions. *)
      (match Journal.replay path with
      | Some (_, records, Journal.Clean) ->
          Alcotest.(check bool) "supervision records journalled" true
            (List.exists
               (fun payload -> Runcell.parse_supervision payload <> None)
               records)
      | _ -> Alcotest.fail "campaign journal not clean after exhaustion");
      let snap = ref None in
      let resumed =
        Drive.scan ~backend:Pool.Processes ~jobs:2
          ~observe:(fun s -> snap := Some s)
          (Spec.of_golden
             ~policy:
               (sup_policy ~journal:path ~resume:true ~shard_size:1
                  ~max_retries:1 ())
             golden)
      in
      check_scans_identical "exhaustion + resume = serial" serial resumed;
      match !snap with
      | None -> Alcotest.fail "observe never called"
      | Some s ->
          Alcotest.(check bool) "healthy shard was recovered, not redone" true
            (s.Progress.resumed_classes > 0))

(* The same poisoned shard with quarantine ON: the campaign completes,
   isolates exactly that shard, returns exact results everywhere else —
   and a clean --resume heals to the full serial scan. *)
let test_quarantine_then_resume () =
  let serial = Lazy.force flag1_serial in
  let golden = Lazy.force flag1_golden in
  with_temp_file (fun path ->
      let degraded =
        with_torture "poison:1" (fun () ->
            Drive.cell ~backend:Pool.Processes ~jobs:3
              (Spec.of_golden
                 ~policy:
                   (sup_policy ~journal:path ~shard_size:1 ~max_retries:1
                      ~quarantine:true ())
                 golden))
      in
      (match degraded.Engine.quarantined with
      | [ q ] ->
          Alcotest.(check int) "the poisoned shard" 1 q.Engine.q_shard;
          Alcotest.(check int) "budget fully burned" 2 q.Engine.q_attempts;
          let excluded = q.Engine.q_class_indices in
          let total = Array.length serial.Scan.experiments / 8 in
          for ci = 0 to total - 1 do
            if not (Array.exists (( = ) ci) excluded) then
              Alcotest.(check bool)
                (Printf.sprintf "class %d exact despite quarantine" ci)
                true
                (Array.sub degraded.Engine.scan.Scan.experiments (8 * ci) 8
                = Array.sub serial.Scan.experiments (8 * ci) 8)
          done
      | qs ->
          Alcotest.failf "expected exactly one quarantined shard, got %d"
            (List.length qs));
      let healed =
        Drive.cell ~backend:Pool.Processes ~jobs:3
          (Spec.of_golden
             ~policy:
               (sup_policy ~journal:path ~resume:true ~shard_size:1
                  ~max_retries:1 ~quarantine:true ())
             golden)
      in
      check_scans_identical "quarantine + resume = serial" serial
        healed.Engine.scan;
      Alcotest.(check int) "quarantine cleared on resume" 0
        (List.length healed.Engine.quarantined))

(* Sustained churn: EVERY worker (including replacements) is SIGKILLed
   after one completed shard, for the whole campaign.  Each death makes
   progress, so no shard may be charged a retry attempt — the campaign
   must complete bit-identically with nothing quarantined.  (Regression:
   charging the next-in-line shard on every death let churn exhaust a
   healthy shard's budget and quarantine it.) *)
let test_sustained_churn_heals () =
  let serial = Lazy.force flag1_serial in
  let golden = Lazy.force flag1_golden in
  let shard_size = Array.length serial.Scan.experiments / 8 / 8 in
  let snap = ref None in
  let result =
    with_torture "sigkill:1" (fun () ->
        Drive.cell ~backend:Pool.Processes ~jobs:2
          ~observe:(fun s -> snap := Some s)
          (Spec.of_golden
             ~policy:(sup_policy ~shard_size ~quarantine:true ())
             golden))
  in
  check_scans_identical "churn healed bit-identically" serial
    result.Engine.scan;
  Alcotest.(check int) "nothing quarantined under churn" 0
    (List.length result.Engine.quarantined);
  match !snap with
  | None -> Alcotest.fail "observe never called"
  | Some s ->
      Alcotest.(check bool) "churn forced retries" true
        (s.Progress.retries >= 1)

(* Supervision on an UNDISTURBED campaign must be invisible: same scan,
   no kills, no retries, nothing quarantined. *)
let test_supervision_invisible_when_healthy () =
  let serial = Lazy.force flag1_serial in
  let snap = ref None in
  let result =
    Drive.cell ~backend:Pool.Processes ~jobs:3
      ~observe:(fun s -> snap := Some s)
      (Spec.of_golden
         ~policy:(sup_policy ~shard_timeout:30. ~quarantine:true ())
         (Lazy.force flag1_golden))
  in
  check_scans_identical "supervised healthy run = serial" serial
    result.Engine.scan;
  Alcotest.(check int) "nothing quarantined" 0
    (List.length result.Engine.quarantined);
  match !snap with
  | None -> Alcotest.fail "observe never called"
  | Some s ->
      Alcotest.(check int) "no kills" 0 s.Progress.kills;
      Alcotest.(check int) "no retries" 0 s.Progress.retries

let qcheck_supervised_crash_heals =
  QCheck.Test.make
    ~name:"torture: supervision heals transient crashes on random programs"
    ~count:4
    QCheck.(pair (int_bound 10_000) (int_range 2 3))
    (fun (seed, jobs) ->
      let golden = random_golden seed in
      let result =
        with_torture "exit:0:0" (fun () ->
            Drive.cell ~backend:Pool.Processes ~jobs
              (Spec.of_golden ~policy:(sup_policy ()) golden))
      in
      result.Engine.quarantined = []
      && Faultspace.(scan (of_golden Bitflip_mem golden)) = result.Engine.scan)

let qcheck_sigkill_resume =
  QCheck.Test.make
    ~name:"torture: sigkill + resume is bit-identical on random programs"
    ~count:4
    QCheck.(int_bound 10_000)
    (fun seed ->
      let golden = random_golden seed in
      with_temp_file (fun path ->
          let spec resume =
            Spec.of_golden
              ~policy:(policy ~journal:path ~resume ~shard_size:1 ())
              golden
          in
          let died =
            match
              with_torture "sigkill:1" (fun () ->
                  Drive.scan ~backend:Pool.Processes ~jobs:2 (spec false))
            with
            | _ -> false
            | exception Engine.Worker_failed _ -> true
          in
          let resumed =
            Drive.scan ~backend:Pool.Processes ~jobs:2 (spec true)
          in
          died && Faultspace.(scan (of_golden Bitflip_mem golden)) = resumed))

(* ------------------------------------------------------------------ *)
(* The crash matrix over the network (Pool.Sockets on the loopback)   *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let with_daemon ?(workers = 2) f =
  match
    Remote.spawn_daemon Remote.daemon { Remote.default_config with workers }
  with
  | Error e -> Alcotest.fail e
  | Ok (pid, addr) ->
      Fun.protect ~finally:(fun () -> Remote.kill_daemon pid) (fun () -> f addr)

let sockets_of addr = Pool.Sockets [ Addr.to_string addr ]

(* The crash_round_trip story told over TCP, with the extra twist the
   wire makes possible: the torture-struck fleet is torn down entirely
   after the failure, and a FRESH daemon heals the journal with resume
   — remote workers vanishing between runs must cost nothing but the
   unfinished shards.  The daemon must be spawned inside [with_torture]:
   it inherits the environment at spawn, and its conducting children
   inherit it from the daemon. *)
let net_round_trip mode =
  let serial = Lazy.force flag1_serial in
  let golden = Lazy.force flag1_golden in
  with_temp_file (fun path ->
      let spec resume =
        Spec.of_golden
          ~policy:(policy ~journal:path ~resume ~shard_size:1 ())
          golden
      in
      with_torture
        (Printf.sprintf "%s:1" mode)
        (fun () ->
          with_daemon (fun addr ->
              match
                Drive.scan ~backend:(sockets_of addr) ~jobs:2 (spec false)
              with
              | _ -> Alcotest.failf "net %s: expected Worker_failed" mode
              | exception Engine.Worker_failed msg ->
                  Alcotest.(check bool)
                    (mode ^ ": failure names the remote worker")
                    true
                    (contains msg "remote worker")));
      (match Journal.replay path with
      | Some (_, records, Journal.Clean) ->
          Alcotest.(check bool)
            (mode ^ ": progress was journalled over the wire")
            true
            (List.length records >= 1)
      | Some (_, _, _) ->
          Alcotest.failf "net %s: campaign journal not clean" mode
      | None -> Alcotest.failf "net %s: campaign journal unreadable" mode);
      let snap = ref None in
      let resumed =
        with_daemon (fun addr ->
            Drive.scan ~backend:(sockets_of addr) ~jobs:2
              ~observe:(fun s -> snap := Some s)
              (spec true))
      in
      check_scans_identical
        (mode ^ ": remote crash + fresh fleet + resume = serial")
        serial resumed;
      match !snap with
      | None -> Alcotest.fail "observe never called"
      | Some s ->
          Alcotest.(check bool)
            (mode ^ ": resumed without re-conducting")
            true
            (s.Progress.resumed_classes > 0))

let test_net_crash_exit () = net_round_trip "exit"
let test_net_crash_raise () = net_round_trip "raise"
let test_net_crash_sigkill () = net_round_trip "sigkill"
let test_net_crash_torn () = net_round_trip "torn"

(* Wedged remote workers: supervision must notice the blown deadline,
   tear the connection down (the network's SIGKILL) and re-dispatch
   until the campaign heals in place — no manual resume. *)
let net_heal torture =
  let serial = Lazy.force hi_serial in
  let golden = Lazy.force hi_golden in
  let snap = ref None in
  let result =
    with_torture torture (fun () ->
        with_daemon (fun addr ->
            Drive.cell ~backend:(sockets_of addr) ~jobs:2
              ~observe:(fun s -> snap := Some s)
              (Spec.of_golden
                 ~policy:(sup_policy ~shard_size:1 ~shard_timeout:0.4 ())
                 golden)))
  in
  check_scans_identical (torture ^ ": supervision healed over the wire") serial
    result.Engine.scan;
  Alcotest.(check int) (torture ^ ": nothing quarantined") 0
    (List.length result.Engine.quarantined);
  match !snap with
  | None -> Alcotest.fail "observe never called"
  | Some s ->
      Alcotest.(check bool) (torture ^ ": connections were torn down") true
        (s.Progress.kills >= 1)

let test_net_heal_hang () = net_heal "hang:1"
let test_net_heal_stall () = net_heal "stall:1"

(* A poisoned shard on a remote fleet: budget burned, exactly that shard
   quarantined, everything else exact — then a fresh fleet resumes to
   the full serial scan.  Identical verdicts to the local backends. *)
let test_net_quarantine_then_resume () =
  let serial = Lazy.force flag1_serial in
  let golden = Lazy.force flag1_golden in
  with_temp_file (fun path ->
      let degraded =
        with_torture "poison:1" (fun () ->
            with_daemon ~workers:3 (fun addr ->
                Drive.cell ~backend:(sockets_of addr) ~jobs:3
                  (Spec.of_golden
                     ~policy:
                       (sup_policy ~journal:path ~shard_size:1 ~max_retries:1
                          ~quarantine:true ())
                     golden)))
      in
      (match degraded.Engine.quarantined with
      | [ q ] -> Alcotest.(check int) "the poisoned shard" 1 q.Engine.q_shard
      | qs ->
          Alcotest.failf "expected exactly one quarantined shard, got %d"
            (List.length qs));
      let healed =
        with_daemon ~workers:3 (fun addr ->
            Drive.cell ~backend:(sockets_of addr) ~jobs:3
              (Spec.of_golden
                 ~policy:
                   (sup_policy ~journal:path ~resume:true ~shard_size:1
                      ~max_retries:1 ~quarantine:true ())
                 golden))
      in
      check_scans_identical "net quarantine + resume = serial" serial
        healed.Engine.scan;
      Alcotest.(check int) "quarantine cleared on resume" 0
        (List.length healed.Engine.quarantined))

(* A half-open peer: accepts the connection, then goes silent.  The
   handshake deadline must convert it into a refusal at probe time and
   a loud Worker_failed before any shard is dispatched — never a hung
   campaign.  The silent peer runs on a domain (Unix.fork is off-limits
   once domains exist), and the handshake timeout is shrunk so the test
   takes tenths of a second, not the production ten. *)
let test_net_half_open () =
  let saved_c = !Remote.connect_timeout
  and saved_h = !Remote.handshake_timeout in
  Remote.connect_timeout := 2.0;
  Remote.handshake_timeout := 0.3;
  Fun.protect
    ~finally:(fun () ->
      Remote.connect_timeout := saved_c;
      Remote.handshake_timeout := saved_h)
    (fun () ->
      match Transport.listen { Addr.host = "127.0.0.1"; port = 0 } with
      | Error e -> Alcotest.fail e
      | Ok (lfd, addr) ->
          let stop = Atomic.make false in
          let server =
            Domain.spawn (fun () ->
                match Transport.accept lfd with
                | conn ->
                    while not (Atomic.get stop) do
                      Unix.sleepf 0.02
                    done;
                    Transport.close conn
                | exception _ -> ())
          in
          Fun.protect
            ~finally:(fun () ->
              Atomic.set stop true;
              (match Transport.connect ~timeout:1. addr with
              | Ok c -> Transport.close c
              | Error _ -> ());
              Sysio.close_quietly lfd;
              Domain.join server)
            (fun () ->
              (match Remote.probe addr with
              | Ok _ -> Alcotest.fail "half-open peer passed the probe"
              | Error _ -> ());
              match
                Drive.scan ~backend:(sockets_of addr) ~jobs:1
                  (Spec.of_golden (Lazy.force hi_golden))
              with
              | _ -> Alcotest.fail "expected Worker_failed"
              | exception Engine.Worker_failed msg ->
                  Alcotest.(check bool) "refusal names the host" true
                    (contains msg "worker host")))

(* The whole daemon SIGKILLed mid-campaign — every connection dies at
   once with shards in flight.  The journal must stay CRC-valid to the
   last merged record, and a fresh fleet + --resume must complete
   bit-identically: the acceptance scenario of DESIGN.md §11. *)
let test_net_daemon_vanishes_then_resume () =
  let serial = Lazy.force flag1_serial in
  let golden = Lazy.force flag1_golden in
  with_temp_file (fun path ->
      let spec resume =
        Spec.of_golden
          ~policy:(policy ~journal:path ~resume ~shard_size:1 ())
          golden
      in
      (match
         Remote.spawn_daemon Remote.daemon
           { Remote.default_config with workers = 2 }
       with
      | Error e -> Alcotest.fail e
      | Ok (pid, addr) ->
          let killed = ref false in
          Fun.protect
            ~finally:(fun () -> if not !killed then Remote.kill_daemon pid)
            (fun () ->
              match
                Drive.scan ~backend:(sockets_of addr) ~jobs:2
                  ~observe:(fun s ->
                    (* First merged shard: pull the plug on the fleet. *)
                    if (not !killed) && s.Progress.shards_done >= 1 then begin
                      killed := true;
                      Remote.kill_daemon pid
                    end)
                  (spec false)
              with
              | _ -> Alcotest.fail "expected Worker_failed"
              | exception Engine.Worker_failed _ ->
                  Alcotest.(check bool) "the fleet was killed mid-campaign"
                    true !killed));
      (match Journal.replay path with
      | Some (_, records, Journal.Clean) ->
          Alcotest.(check bool) "journal survived the vanished fleet" true
            (List.length records >= 1)
      | _ -> Alcotest.fail "campaign journal not clean after daemon death");
      let resumed =
        with_daemon (fun addr ->
            Drive.scan ~backend:(sockets_of addr) ~jobs:2 (spec true))
      in
      check_scans_identical "vanished fleet + resume = serial" serial resumed)

(* ------------------------------------------------------------------ *)
(* Campaign service under adversity (DESIGN.md §12)                   *)
(* ------------------------------------------------------------------ *)

(* The service front door end to end, including its promise under the
   rudest client behaviour: a submitter that vanishes mid-campaign must
   not kill the campaign — the runner finishes, publishes to the result
   store, and the next submitter gets a cache hit. *)
let test_service_survives_disconnect () =
  let dir = Filename.temp_file "fitorture" ".store" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun name -> Sys.remove (Filename.concat dir name))
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      let config =
        { Service.default_config with Service.artifacts = dir; jobs = 2 }
      in
      match Remote.spawn_daemon Service.daemon config with
      | Error e -> Alcotest.fail e
      | Ok (pid, addr) ->
          Fun.protect
            ~finally:(fun () -> Remote.kill_daemon pid)
            (fun () ->
              let cell =
                Worker.cell_of_spec (Spec.of_golden (Lazy.force hi_golden))
              in
              (* A client that submits and slams the connection shut. *)
              (match
                 Remote.with_peer addr (fun conn _ ->
                     Ok
                       (Transport.send conn Frame.Submit
                          (Worker.encode Service.submission [ cell ])))
               with
              | Ok () -> ()
              | Error e -> Alcotest.fail e);
              (* The abandoned campaign must still finish and publish. *)
              let deadline = Unix.gettimeofday () +. 30. in
              while
                Cache.entries ~dir = []
                && Unix.gettimeofday () < deadline
              do
                Unix.sleepf 0.1
              done;
              Alcotest.(check bool) "abandoned campaign was published" true
                (Cache.entries ~dir <> []);
              (* ...and the next submitter gets it for free, exactly. *)
              match Service.submit ~addr [ cell ] with
              | Ok [ (_, r) ] ->
                  Alcotest.(check bool) "next submitter hits the store" true
                    r.Engine.cached;
                  check_scans_identical "served scan = serial"
                    (Lazy.force hi_serial) r.Engine.scan
              | Ok _ -> Alcotest.fail "unexpected result shape"
              | Error msg -> Alcotest.failf "follow-up submit failed: %s" msg))

let () =
  (* Each entry is [in_smoke_subset, test]: with FI_TORTURE_SMOKE=1
     (the @torture-smoke alias) only one fast representative per
     supervision mechanism runs — a few seconds instead of minutes. *)
  let matrix =
    [
      ( false,
        Alcotest.test_case "processes = serial (fixtures, j 1-3)" `Slow
          test_differential_fixtures );
      (true, Alcotest.test_case "crash: clean nonzero exit" `Slow test_crash_exit);
      ( false,
        Alcotest.test_case "crash: uncaught exception" `Slow test_crash_raise );
      ( false,
        Alcotest.test_case "crash: sigkill between shards" `Slow
          test_crash_sigkill );
      ( false,
        Alcotest.test_case "crash: sigkill mid-append (torn record)" `Slow
          test_crash_torn );
      ( false,
        Alcotest.test_case "crash: killed before any shard" `Slow
          test_crash_immediately );
      ( true,
        Alcotest.test_case "crash then resume across a stride change" `Slow
          test_crash_stride_churn );
      (true, Alcotest.test_case "supervision heals hangs" `Slow test_heal_hang);
      ( false,
        Alcotest.test_case "supervision heals stalls" `Slow test_heal_stall );
      ( true,
        Alcotest.test_case "retry exhaustion, then resume" `Slow
          test_retry_exhaustion_then_resume );
      ( false,
        Alcotest.test_case "poisoned shard quarantined, then resume" `Slow
          test_quarantine_then_resume );
      ( false,
        Alcotest.test_case "sustained churn heals without quarantine" `Slow
          test_sustained_churn_heals );
      ( true,
        Alcotest.test_case "supervision invisible on a healthy run" `Slow
          test_supervision_invisible_when_healthy );
      ( true,
        Alcotest.test_case "net crash: clean nonzero exit" `Slow
          test_net_crash_exit );
      ( false,
        Alcotest.test_case "net crash: uncaught exception" `Slow
          test_net_crash_raise );
      ( false,
        Alcotest.test_case "net crash: sigkill between shards" `Slow
          test_net_crash_sigkill );
      ( false,
        Alcotest.test_case "net crash: corrupt frame then death" `Slow
          test_net_crash_torn );
      ( false,
        Alcotest.test_case "net supervision heals hangs" `Slow
          test_net_heal_hang );
      ( false,
        Alcotest.test_case "net supervision heals stalls" `Slow
          test_net_heal_stall );
      ( false,
        Alcotest.test_case "net poisoned shard quarantined, then resume" `Slow
          test_net_quarantine_then_resume );
      ( true,
        Alcotest.test_case "net half-open connection refused loudly" `Slow
          test_net_half_open );
      ( true,
        Alcotest.test_case "net daemon vanishes mid-campaign, resume heals"
          `Slow test_net_daemon_vanishes_then_resume );
      ( true,
        Alcotest.test_case
          "service: client disconnect survived, next submit hits cache" `Slow
          test_service_survives_disconnect );
      (false, QCheck_alcotest.to_alcotest qcheck_differential_memory);
      (false, QCheck_alcotest.to_alcotest qcheck_differential_registers);
      (false, QCheck_alcotest.to_alcotest qcheck_supervised_crash_heals);
      (false, QCheck_alcotest.to_alcotest qcheck_sigkill_resume);
    ]
  in
  let selected =
    List.filter_map (fun (fast, t) -> if (not smoke) || fast then Some t else None)
      matrix
  in
  Alcotest.run "fi-torture" [ ("torture", selected) ]
