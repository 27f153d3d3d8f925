(* Tests for the campaign service (lib/service): the fair admission
   queue, the versioned wire codecs, and the daemon end-to-end —
   submissions conducted and streamed back, repeat submissions served
   from the result store for every fault model, two concurrent clients
   each getting their own correct results, a silent client that cannot
   stall the daemon, and shared-secret handshake authentication with a
   distinct error per failure mode. *)

let contains = Astring_contains.contains

let with_temp_dir f =
  let dir = Filename.temp_file "fisvc" ".artifacts" in
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
    (fun () -> f dir)

(* Re-exec guard for the concurrent-clients test below.  [Unix.fork]
   is unavailable once this binary has spawned domains, so the second
   client is a fresh copy of the test executable: it submits the DFT
   cell to the address named in the environment, checks the results
   against a local serial scan, and reports through its exit code. *)
let submit_helper_var = "FI_TEST_SUBMIT_HELPER"

let helper_guard () =
  match Sys.getenv_opt submit_helper_var with
  | None | Some "" -> ()
  | Some addr ->
      let addr = Addr.parse_exn addr in
      let cell_dft =
        Worker.cell_of_spec
          (Spec.of_golden ~variant:"dft" (Golden.run (Hi.dft ())))
      in
      let ok =
        match Service.submit ~addr [ cell_dft ] with
        | Ok [ (label, r) ] ->
            label = cell_dft.Worker.benchmark ^ "/dft"
            && r.Engine.scan
               = Faultspace.(scan ~variant:"dft" (analyse Bitflip_mem (Hi.dft ())))
            && r.Engine.quarantined = []
        | _ -> false
      in
      exit (if ok then 0 else 1)

let spawn_helper var value =
  let env =
    Array.append (Unix.environment ()) [| Printf.sprintf "%s=%s" var value |]
  in
  Unix.create_process_env Sys.executable_name [| Sys.executable_name |] env
    Unix.stdin Unix.stdout Unix.stderr

(* ------------------------------------------------------------------ *)
(* Fairq                                                              *)
(* ------------------------------------------------------------------ *)

let test_fairq_round_robin () =
  let q = Fairq.create ~window:8 in
  List.iter
    (fun (c, j) ->
      match Fairq.admit q ~client:c j with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unexpected refusal: %s" e)
    [ ("a", "a1"); ("a", "a2"); ("a", "a3"); ("b", "b1") ];
  Alcotest.(check int) "four pending" 4 (Fairq.pending q);
  Alcotest.(check int) "two clients" 2 (Fairq.clients q);
  let order = List.init 4 (fun _ -> Fairq.take q) in
  (* FIFO within a client, round-robin across clients: a flooding
     client (a) delays only itself. *)
  Alcotest.(check (list (option (pair string string))))
    "a1 b1 a2 a3"
    [
      Some ("a", "a1"); Some ("b", "b1"); Some ("a", "a2"); Some ("a", "a3");
    ]
    order;
  Alcotest.(check (option (pair string string))) "drained" None (Fairq.take q);
  Alcotest.(check int) "no clients left" 0 (Fairq.clients q)

let test_fairq_window () =
  let q = Fairq.create ~window:2 in
  Alcotest.(check bool) "first admitted" true
    (Fairq.admit q ~client:"a" 1 = Ok 1);
  Alcotest.(check bool) "second admitted" true
    (Fairq.admit q ~client:"a" 2 = Ok 2);
  (match Fairq.admit q ~client:"a" 3 with
  | Error msg ->
      Alcotest.(check bool) "refusal names the window" true
        (contains msg "admission window full")
  | Ok _ -> Alcotest.fail "third admission should refuse");
  (* Another client is unaffected by a's full window. *)
  Alcotest.(check bool) "b admitted" true (Fairq.admit q ~client:"b" 9 = Ok 1);
  (* Draining one of a's jobs frees a slot. *)
  ignore (Fairq.take q);
  Alcotest.(check bool) "a admitted after drain" true
    (Fairq.admit q ~client:"a" 3 = Ok 2);
  match Fairq.create ~window:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "window 0 should be rejected"

(* ------------------------------------------------------------------ *)
(* Wire codecs                                                        *)
(* ------------------------------------------------------------------ *)

let hi_cell () = Worker.cell_of_spec (Spec.of_golden (Golden.run (Hi.program ())))

let test_wire_roundtrip () =
  let cell = hi_cell () in
  (match Worker.decode Service.submission (Worker.encode Service.submission [ cell ]) with
  | Some [ c ] -> Alcotest.(check bool) "cell survives" true (c = cell)
  | _ -> Alcotest.fail "submission did not roundtrip");
  Alcotest.(check bool) "garbage submission rejected" true
    (Worker.decode Service.submission "fi-svc v1\nnot marshal" = None);
  Alcotest.(check bool) "wrong magic rejected" true
    (Worker.decode Service.submission (Worker.encode Service.results []) = None);
  let r =
    {
      Engine.scan = Faultspace.(scan (analyse Bitflip_mem (Hi.program ())));
      cached = true;
      quarantined =
        [ { Engine.q_cell = "hi/baseline"; q_shard = 1; q_classes = 3;
            q_class_indices = [| 4; 5; 6 |]; q_attempts = 2; q_cause = "hung" } ];
    }
  in
  match Worker.decode Service.results (Worker.encode Service.results [ ("hi/baseline", r) ]) with
  | Some [ r' ] ->
      Alcotest.(check bool) "result roundtrips" true (r' = ("hi/baseline", r))
  | _ -> Alcotest.fail "results did not roundtrip"

(* ------------------------------------------------------------------ *)
(* Daemon end-to-end                                                  *)
(* ------------------------------------------------------------------ *)

let with_daemon ?secret_file f =
  with_temp_dir (fun dir ->
      let config =
        {
          Service.default_config with
          Service.artifacts = dir;
          jobs = 2;
          secret_file;
        }
      in
      match Remote.spawn_daemon Service.daemon config with
      | Error msg -> Alcotest.failf "daemon failed to start: %s" msg
      | Ok (pid, addr) ->
          Fun.protect ~finally:(fun () -> Remote.kill_daemon pid) (fun () ->
              f ~dir ~addr))

let check_scans_identical msg serial parallel =
  Alcotest.(check bool) (msg ^ " (structural)") true (serial = parallel);
  Alcotest.(check string)
    (msg ^ " (serialised)")
    (Csv_io.to_string serial)
    (Csv_io.to_string parallel)

(* One cell per fault-space family the service's cache routing keys: the
   paper's memory model, the register file, and instruction skips. *)
let model_specs () =
  [
    Spec.of_golden (Golden.run (Hi.program ()));
    Spec.build ~model:Faultspace.Bitflip_reg ~benchmark:"hi" Hi.program;
    Spec.build ~model:Faultspace.Skip ~benchmark:"hi" Hi.program;
  ]

let submit_all ~addr ~what cells =
  let progress = ref [] in
  match
    Service.submit ~addr
      ~on_progress:(fun line -> progress := line :: !progress)
      cells
  with
  | Ok rs when List.length rs = List.length cells -> (rs, !progress)
  | Ok rs -> Alcotest.failf "%s: expected %d results, got %d" what
               (List.length cells) (List.length rs)
  | Error msg -> Alcotest.failf "%s submit failed: %s" what msg

let test_submit_then_cache_hit () =
  with_daemon (fun ~dir:_ ~addr ->
      let specs = model_specs () in
      let cells = List.map (fun s -> Worker.cell_of_spec s) specs in
      let cold, progress = submit_all ~addr ~what:"cold" cells in
      List.iter2
        (fun spec (label, (r : Engine.result)) ->
          Alcotest.(check string) "label" (Spec.label spec) label;
          Alcotest.(check bool) (label ^ ": cold result is a run") false
            r.Engine.cached;
          check_scans_identical (label ^ ": cold scan = local")
            (Drive.scan ~jobs:1 spec) r.Engine.scan)
        specs cold;
      Alcotest.(check bool) "progress streamed (queued ack at least)" true
        (progress <> []);
      Alcotest.(check bool) "cold was queued" true
        (List.exists (fun l -> contains l "queued") progress);
      let warm, warm_progress = submit_all ~addr ~what:"warm" cells in
      List.iter2
        (fun (label, (c : Engine.result)) (_, (w : Engine.result)) ->
          Alcotest.(check bool) (label ^ ": warm result is a cache hit") true
            w.Engine.cached;
          check_scans_identical (label ^ ": warm scan = cold scan")
            c.Engine.scan w.Engine.scan)
        cold warm;
      Alcotest.(check bool) "warm bypassed the queue" true
        (List.exists (fun l -> contains l "cache-hit") warm_progress);
      (* Status reflects the published store. *)
      match Service.status ~addr () with
      | Ok line ->
          Alcotest.(check bool) "status names the store" true
            (contains line "cached-cells=3")
      | Error msg -> Alcotest.failf "status failed: %s" msg)

(* A client that connects and never says hello must not freeze the
   daemon: the hello is read in the select loop, so everyone else is
   answered at once while the silent session waits out its deadline. *)
let test_silent_client () =
  with_daemon (fun ~dir:_ ~addr ->
      match Transport.connect addr with
      | Error e -> Alcotest.fail e
      | Ok silent ->
          Fun.protect ~finally:(fun () -> Transport.close silent) (fun () ->
              let t0 = Unix.gettimeofday () in
              (match Service.status ~addr () with
              | Ok line ->
                  Alcotest.(check bool) "status line" true
                    (contains line "fi-svc status")
              | Error msg -> Alcotest.failf "status failed: %s" msg);
              let dt = Unix.gettimeofday () -. t0 in
              Alcotest.(check bool)
                (Printf.sprintf "status answered in %.2fs (< 2s)" dt)
                true (dt < 2.)))

(* Two clients with different campaigns, concurrently: each must get
   its own results (labels and scans), never the other's. *)
let test_two_concurrent_clients () =
  with_daemon (fun ~dir:_ ~addr ->
      let cell_hi = hi_cell () in
      (* The second client races us from a fresh process: it submits
         the DFT cell and verifies on its side (see [helper_guard]). *)
      let child = spawn_helper submit_helper_var (Addr.to_string addr) in
      let mine =
        match Service.submit ~addr [ cell_hi ] with
        | Ok [ (_, r) ] -> r
        | Ok rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)
        | Error msg -> Alcotest.failf "parent submit failed: %s" msg
      in
      check_scans_identical "parent got its own scan"
        (Faultspace.(scan (analyse Bitflip_mem (Hi.program ()))))
        mine.Engine.scan;
      match Unix.waitpid [] child with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED n ->
          Alcotest.failf "concurrent client got wrong results (exit %d)" n
      | _ -> Alcotest.fail "concurrent client died")

(* A fleet-less service conducts on its local backend, so a hostless
   sockets backend is refused before the daemon announces an address,
   not by every submission after it. *)
let test_hostless_sockets_refused () =
  match
    Remote.spawn_daemon Service.daemon
      { Service.default_config with Service.local_backend = Pool.Sockets [] }
  with
  | Ok (pid, _) ->
      Remote.kill_daemon pid;
      Alcotest.fail "a service with a hostless sockets backend started"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Shared-secret authentication                                       *)
(* ------------------------------------------------------------------ *)

let test_service_auth () =
  with_temp_dir (fun keydir ->
      let secret_file = Filename.concat keydir "svc.key" in
      let oc = open_out secret_file in
      output_string oc "open sesame\n";
      close_out oc;
      with_daemon ~secret_file (fun ~dir:_ ~addr ->
          let cell = hi_cell () in
          (* No secret: refused, and the error says to bring one. *)
          (match Service.submit ~addr [ cell ] with
          | Ok _ -> Alcotest.fail "unauthenticated submit accepted"
          | Error msg ->
              Alcotest.(check bool)
                (Printf.sprintf "no-secret error is specific: %s" msg)
                true
                (contains msg "no auth tag"));
          (* Wrong secret: a different, mismatch-specific error. *)
          (match Service.submit ~secret:"wrong" ~addr [ cell ] with
          | Ok _ -> Alcotest.fail "wrong-secret submit accepted"
          | Error msg ->
              Alcotest.(check bool)
                (Printf.sprintf "wrong-secret error is specific: %s" msg)
                true
                (contains msg "mismatch"));
          (* Right secret: conducted normally. *)
          match Service.submit ~secret:"open sesame" ~addr [ cell ] with
          | Ok [ (_, r) ] ->
              Alcotest.(check bool) "authenticated submit conducted" false
                r.Engine.cached
          | Ok _ -> Alcotest.fail "unexpected result shape"
          | Error msg -> Alcotest.failf "authenticated submit failed: %s" msg))

let suite =
  ( "service",
    [
      Alcotest.test_case "fairq: FIFO per client, round-robin across" `Quick
        test_fairq_round_robin;
      Alcotest.test_case "fairq: admission window back-pressure" `Quick
        test_fairq_window;
      Alcotest.test_case "wire: submission and result codecs" `Quick
        test_wire_roundtrip;
      Alcotest.test_case "daemon: submit, then cache hit" `Quick
        test_submit_then_cache_hit;
      Alcotest.test_case "daemon: two concurrent clients" `Quick
        test_two_concurrent_clients;
      Alcotest.test_case "daemon: a silent client does not stall status"
        `Quick test_silent_client;
      Alcotest.test_case "daemon: hostless sockets backend refused" `Quick
        test_hostless_sockets_refused;
      Alcotest.test_case "daemon: shared-secret auth, distinct errors" `Quick
        test_service_auth;
    ] )
