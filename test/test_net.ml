(* Tests for the socket transport and the distributed (Pool.Sockets)
   backend: frame/handshake/wire-job codecs and their corruption
   rejection, endpoint parsing, the -j semantics for remote hosts, and
   loopback differential equivalence — a campaign conducted by remote
   worker daemons must be bit-identical to the Processes, Domains and
   serial conductors (at -j 1 down to the journal bytes), including
   after a daemon vanishes mid-campaign and the journal is healed with
   --resume.  The slow/adversarial
   network crash matrix lives in torture.ml behind @torture. *)

let contains = Astring_contains.contains
let hi_golden = lazy (Golden.run (Hi.program ()))
let hi_serial =
  lazy Faultspace.(scan (of_golden Bitflip_mem (Lazy.force hi_golden)))
let hi_reg_serial =
  lazy Faultspace.(scan (of_golden Bitflip_reg (Lazy.force hi_golden)))
let hi_reg () =
  Spec.of_golden ~model:Faultspace.Bitflip_reg (Lazy.force hi_golden)
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
  let path = Filename.temp_file "finet" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let with_daemon ?(workers = 2) ?secret_file f =
  match
    Remote.spawn_daemon Remote.daemon
      { Remote.default_config with workers; secret_file }
  with
  | Error e -> Alcotest.fail e
  | Ok (pid, addr) ->
      Fun.protect ~finally:(fun () -> Remote.kill_daemon pid) (fun () -> f addr)

let sockets_of addr = Pool.Sockets [ Addr.to_string addr ]

(* ------------------------------------------------------------------ *)
(* Endpoint addresses                                                 *)
(* ------------------------------------------------------------------ *)

let test_addr () =
  (match Addr.parse "127.0.0.1:9000" with
  | Ok { Addr.host = "127.0.0.1"; port = 9000 } -> ()
  | _ -> Alcotest.fail "dotted quad");
  Alcotest.(check string)
    "roundtrip" "node7:80"
    (Addr.to_string (Addr.parse_exn "node7:80"));
  (* IPv6 literals: bracketed form parses (brackets stripped), bare form
     is rejected — its last hextet would be misread as the port. *)
  (match Addr.parse "[::1]:9000" with
  | Ok { Addr.host = "::1"; port = 9000 } -> ()
  | _ -> Alcotest.fail "bracketed v6 loopback");
  Alcotest.(check string)
    "v6 roundtrip re-brackets" "[fe80::1]:80"
    (Addr.to_string (Addr.parse_exn "[fe80::1]:80"));
  (match Addr.parse "::1" with
  | Error msg ->
      Alcotest.(check bool) "bare v6 error points at brackets" true
        (Astring_contains.contains msg "[HOST]:PORT")
  | Ok _ -> Alcotest.fail "bare v6 literal must not parse");
  List.iter
    (fun s ->
      match Addr.parse s with
      | Ok _ -> Alcotest.failf "parsed %S" s
      | Error _ -> ())
    [
      ""; "nohost"; ":80"; "h:"; "h:0x50"; "h:-1"; "h:65536"; "[::1]";
      "[::1]80"; "[]:80"; "[::1:80";
    ];
  (match Addr.parse_list "a:1,b:2, c:3 ," with
  | Ok [ a; b; c ] ->
      Alcotest.(check (list string))
        "list" [ "a:1"; "b:2"; "c:3" ]
        (List.map Addr.to_string [ a; b; c ])
  | _ -> Alcotest.fail "list of three");
  match Addr.parse_list " , " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty list must not parse"

(* ------------------------------------------------------------------ *)
(* Frame codec                                                        *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let frames =
    [
      (Frame.Hello, "fi-net hello");
      (Frame.Job, String.init 4096 (fun i -> Char.chr (i land 0xff)));
      (Frame.Door, "s 12");
      (Frame.Seg, "deadbeef payload");
      (Frame.Err, "");
    ]
  in
  let wire =
    String.concat "" (List.map (fun (k, p) -> Frame.encode k p) frames)
  in
  (* Byte-at-a-time feeding: TCP preserves order, not boundaries. *)
  let d = Frame.decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      Frame.feed_string d (String.make 1 c);
      let rec drain () =
        match Frame.next d with
        | Some f ->
            got := f :: !got;
            drain ()
        | None -> ()
      in
      drain ())
    wire;
  Alcotest.(check bool) "all frames back" true (List.rev !got = frames);
  Alcotest.(check int) "nothing buffered" 0 (Frame.buffered d)

let test_frame_rejects_corruption () =
  let expect_corrupt what wire =
    let d = Frame.decoder () in
    Frame.feed_string d wire;
    let rec drain () = match Frame.next d with Some _ -> drain () | None -> () in
    match drain () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Frame.Corrupt _ -> ()
  in
  let good = Frame.encode Frame.Seg "a CRC-guarded record line" in
  (* Flip one payload byte: the length still matches, the CRC cannot. *)
  let flipped =
    String.mapi
      (fun i c ->
        if i = String.length good - 3 then Char.chr (Char.code c lxor 0x40)
        else c)
      good
  in
  expect_corrupt "payload bit flip" flipped;
  expect_corrupt "unknown kind" ("\255" ^ String.sub good 1 (String.length good - 1));
  (* A length claim past the cap must be rejected from the header alone,
     before anyone tries to buffer 2 GiB. *)
  let oversized = Bytes.of_string (String.sub good 0 Frame.header_len) in
  Bytes.set_int32_be oversized 1 0x7fffffffl;
  expect_corrupt "oversized claim" (Bytes.to_string oversized)

(* Fuzzing the incremental decoder.  Two properties:

   1. Split-invariance: however a wire image is sliced into feed
      chunks, the decoder yields exactly the one-shot frame sequence —
      TCP segmentation can never change what is decoded.

   2. Corruption safety: flip any one byte of the wire image and the
      decoder either raises {!Frame.Corrupt} or yields a strict prefix
      of the original frames (when the flip lands in a frame whose
      header hasn't been consumed yet, everything before it already
      decoded).  It must NEVER successfully decode a sequence that
      differs from the original — that would be a mis-parse, the thing
      the kind-covering CRC exists to rule out. *)
let gen_frames =
  QCheck.Gen.(
    let kind =
      oneofl
        [ Frame.Hello; Frame.Job; Frame.Door; Frame.Seg; Frame.Err;
          Frame.Submit; Frame.Stat; Frame.Prog; Frame.Res ]
    in
    let payload = string_size ~gen:char (int_bound 48) in
    list_size (int_range 1 6) (pair kind payload))

let decode_all wire ~cuts =
  (* [cuts] positions split the wire into feed chunks. *)
  let d = Frame.decoder () in
  let got = ref [] in
  let n = String.length wire in
  let bounds = List.sort_uniq compare (0 :: n :: List.map (fun c -> c mod (n + 1)) cuts) in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        Frame.feed_string d (String.sub wire a (b - a));
        let rec drain () =
          match Frame.next d with
          | Some f ->
              got := f :: !got;
              drain ()
          | None -> ()
        in
        drain ();
        pairs rest
    | _ -> ()
  in
  pairs bounds;
  (List.rev !got, Frame.buffered d)

let qcheck_frame_split_invariance =
  QCheck.Test.make ~name:"frame decode is feed-split invariant" ~count:300
    QCheck.(
      make
        Gen.(pair gen_frames (list_size (int_bound 12) (int_bound 10_000))))
    (fun (frames, cuts) ->
      let wire =
        String.concat "" (List.map (fun (k, p) -> Frame.encode k p) frames)
      in
      let got, buffered = decode_all wire ~cuts in
      got = frames && buffered = 0)

let qcheck_frame_mutation_never_misparses =
  QCheck.Test.make
    ~name:"one flipped byte: Corrupt or strict prefix, never a mis-parse"
    ~count:500
    QCheck.(
      make Gen.(triple gen_frames (int_bound 100_000) (int_range 1 255)))
    (fun (frames, pos_seed, flip) ->
      let wire =
        String.concat "" (List.map (fun (k, p) -> Frame.encode k p) frames)
      in
      let pos = pos_seed mod String.length wire in
      let mutated =
        String.mapi
          (fun i c -> if i = pos then Char.chr (Char.code c lxor flip) else c)
          wire
      in
      let rec prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs', y :: ys' -> x = y && prefix xs' ys'
        | _ -> false
      in
      match decode_all mutated ~cuts:[] with
      | got, _ ->
          (* Decoded without an alarm: only acceptable if it is a
             strict prefix (the flip must be hiding in still-buffered
             bytes — a header whose frame never completed). *)
          prefix got frames && List.length got < List.length frames
      | exception Frame.Corrupt _ -> true)

(* ------------------------------------------------------------------ *)
(* Handshake                                                          *)
(* ------------------------------------------------------------------ *)

let test_handshake () =
  let mine = Handshake.hello ~capacity:3 () in
  (match Handshake.decode (Handshake.encode mine) with
  | Some h -> Alcotest.(check bool) "roundtrip" true (h = mine)
  | None -> Alcotest.fail "decode");
  Alcotest.(check bool) "self-check passes" true
    (Handshake.check ~mine ~theirs:mine () = Ok ());
  (match Handshake.check ~mine ~theirs:{ mine with Handshake.version = 999 } () with
  | Error msg ->
      Alcotest.(check bool) "names version" true
        (String.length msg > 0)
  | Ok () -> Alcotest.fail "version mismatch accepted");
  (match
     Handshake.check ~mine
       ~theirs:{ mine with Handshake.digest = String.make 32 '0' }
       ()
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "digest mismatch accepted");
  (* Two unhashable binaries must not pass as identical: "unknown" on
     either side is a refusal, never a match. *)
  let unknown = { mine with Handshake.digest = "unknown" } in
  (match Handshake.check ~mine:unknown ~theirs:unknown () with
  | Error msg ->
      Alcotest.(check bool) "unknown = unknown refused" true
        (Astring_contains.contains msg "unavailable")
  | Ok () -> Alcotest.fail "two unknown digests accepted");
  (match Handshake.check ~mine ~theirs:unknown () with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "peer's unknown digest accepted");
  Alcotest.(check bool) "garbage rejected" true
    (Handshake.decode "fi-net hullo version=one" = None)

(* ------------------------------------------------------------------ *)
(* Shared-secret authentication                                       *)
(* ------------------------------------------------------------------ *)

(* HMAC-MD5 against the RFC 2202 test vectors: short key, text key, a
   key longer than the 64-byte block (hashed first). *)
let test_hmac_vectors () =
  let check_vec name ~key msg expect =
    Alcotest.(check string) name expect (Hmac.mac ~key msg)
  in
  check_vec "rfc2202 #1" ~key:(String.make 16 '\x0b') "Hi There"
    "9294727a3638bb1c13f48ef8158bfc9d";
  check_vec "rfc2202 #2" ~key:"Jefe" "what do ya want for nothing?"
    "750c783e6ab0b503eaa86e310a5db738";
  check_vec "rfc2202 #3" ~key:(String.make 16 '\xaa') (String.make 50 '\xdd')
    "56be34521d144c88dbb8c733f0e8b3f6";
  check_vec "rfc2202 #6 (key > block)" ~key:(String.make 80 '\xaa')
    "Test Using Larger Than Block-Size Key - Hash Key First"
    "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd";
  Alcotest.(check bool) "verify accepts the right tag" true
    (Hmac.verify ~key:"Jefe" "what do ya want for nothing?"
       "750c783e6ab0b503eaa86e310a5db738");
  Alcotest.(check bool) "verify rejects a wrong tag" false
    (Hmac.verify ~key:"Jefe" "what do ya want for nothing?"
       "750c783e6ab0b503eaa86e310a5db739")

(* Each of the three auth failure modes has its own error, so the
   operator knows which end to fix. *)
let test_handshake_auth () =
  let secret = "squeamish ossifrage" in
  let armed = Handshake.hello ~secret () in
  let bare = Handshake.hello () in
  Alcotest.(check bool) "armed hello carries a tag" true
    (armed.Handshake.mac <> "");
  (match Handshake.decode (Handshake.encode armed) with
  | Some h -> Alcotest.(check bool) "tag survives the wire" true (h = armed)
  | None -> Alcotest.fail "armed hello does not decode");
  Alcotest.(check bool) "both armed: accepted" true
    (Handshake.check ~secret ~mine:armed ~theirs:armed () = Ok ());
  (match Handshake.check ~secret ~mine:armed ~theirs:bare () with
  | Error msg ->
      Alcotest.(check bool) "unarmed peer: error says peer sent no tag" true
        (contains msg "no auth tag")
  | Ok () -> Alcotest.fail "unarmed peer accepted by armed end");
  (match Handshake.check ~mine:bare ~theirs:armed () with
  | Error msg ->
      Alcotest.(check bool)
        "armed peer, unarmed self: error says a secret is required" true
        (contains msg "requires a shared secret")
  | Ok () -> Alcotest.fail "armed peer accepted by unarmed end");
  let wrong = Handshake.hello ~secret:"wrong" () in
  (match Handshake.check ~secret ~mine:armed ~theirs:wrong () with
  | Error msg ->
      Alcotest.(check bool) "wrong secret: error says mismatch" true
        (contains msg "mismatch")
  | Ok () -> Alcotest.fail "wrong secret accepted");
  (* A tag computed over a TAMPERED hello must not verify: the mac
     covers the whole identity (version, digest, capacity). *)
  let forged =
    { armed with Handshake.capacity = armed.Handshake.capacity + 1 }
  in
  match Handshake.check ~secret ~mine:armed ~theirs:forged () with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "tampered armed hello accepted"

(* End-to-end: a worker daemon started with --secret refuses the
   unarmed and mis-armed, conducts for the properly armed. *)
(* A secret file holding "open sesame", padded with whitespace that
   [Hmac.load_secret] trims. *)
let with_secret_file f =
  let secret_file = Filename.temp_file "finet" ".key" in
  let oc = open_out secret_file in
  output_string oc "  open sesame \n";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> try Sys.remove secret_file with Sys_error _ -> ())
    (fun () -> f secret_file)

let test_worker_daemon_auth () =
  with_secret_file (fun secret_file ->
      with_daemon ~secret_file (fun addr ->
          (match Remote.probe addr with
          | Error msg ->
              Alcotest.(check bool) "unarmed probe refused with reason"
                true
                (contains msg "secret")
          | Ok _ -> Alcotest.fail "unarmed probe accepted");
          (match Remote.probe ~secret:"wrong" addr with
          | Error msg ->
              Alcotest.(check bool) "wrong-secret probe says mismatch"
                true (contains msg "mismatch")
          | Ok _ -> Alcotest.fail "wrong-secret probe accepted");
          (* load_secret trims whitespace: the armed probe and a
             whole campaign go through. *)
          (match Hmac.load_secret secret_file with
          | Error msg -> Alcotest.failf "load_secret failed: %s" msg
          | Ok s -> Alcotest.(check string) "trimmed" "open sesame" s);
          let secret = "open sesame" in
          (match Remote.probe ~secret addr with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "armed probe refused: %s" msg);
          let result =
            Drive.cell ~backend:(sockets_of addr) ~jobs:2
              ~secret
              (Spec.of_golden (Lazy.force hi_golden))
          in
          check_scans_identical "authenticated campaign = serial"
            (Lazy.force hi_serial) result.Engine.scan))

(* A corpus entry re-verifies on an armed fleet given the secret (as
   [fi-cli fuzz replay --secret] passes it), and is refused without. *)
let test_corpus_verify_armed_fleet () =
  let entry =
    match Corpus.list ~dir:(Filename.concat ".." "corpus") with
    | path :: _ -> (
        match Corpus.load_file path with
        | Ok e -> e
        | Error msg -> Alcotest.fail (path ^ ": " ^ msg))
    | [] -> Alcotest.fail "no checked-in corpus entry"
  in
  with_secret_file (fun secret_file ->
      with_daemon ~secret_file (fun addr ->
          let verify ?secret () =
            Corpus.verify ~backend:(sockets_of addr) ~jobs:2 ?secret entry
          in
          (match verify ~secret:"open sesame" () with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "authenticated verify failed: %s" msg);
          match verify () with
          | Ok () -> Alcotest.fail "unauthenticated verify accepted"
          | Error msg | (exception Engine.Worker_failed msg) ->
              Alcotest.(check bool)
                ("refused for its handshake: " ^ msg)
                true (contains msg "auth")))

(* ------------------------------------------------------------------ *)
(* Wire job codec                                                     *)
(* ------------------------------------------------------------------ *)

let test_wire_job () =
  let spec = Spec.of_golden (Lazy.force hi_golden) in
  let job =
    {
      Worker.cell = Worker.cell_of_spec spec;
      stride = None;
      fingerprint = 0x1234abcd;
      shard_ids = [| 2; 0; 5 |];
      index = 7;
    }
  in
  (match Worker.decode Worker.job_codec (Worker.encode Worker.job_codec job) with
  | Some j ->
      Alcotest.(check bool) "roundtrip" true (j = job);
      (* The re-built spec must analyse to the same fingerprint as the
         conductor's — the property the worker-side refusal rests on. *)
      Alcotest.(check int) "re-analysis agrees"
        (Engine.fingerprint_spec spec)
        (Engine.fingerprint_spec
           (Worker.spec_of_cell ~policy:Spec.default_policy j.Worker.cell))
  | None -> Alcotest.fail "roundtrip decode");
  Alcotest.(check bool) "wrong magic rejected" true
    (Worker.decode Worker.job_codec ("fi-wire v0\n" ^ String.make 40 'x')
     = None);
  Alcotest.(check bool) "truncation rejected" true
    (Worker.decode Worker.job_codec
       (String.sub (Worker.encode Worker.job_codec job) 0 24)
     = None)

(* ------------------------------------------------------------------ *)
(* -j semantics for remote hosts                                      *)
(* ------------------------------------------------------------------ *)

let test_resolve_jobs_sockets () =
  let sockets = Pool.Sockets [ "h:1" ] in
  Alcotest.(check int) "0 defers to the daemons" 0
    (Pool.resolve_jobs ~backend:sockets ~jobs:0 ());
  Alcotest.(check int) "omitted defers to the daemons" 0
    (Pool.resolve_jobs ~backend:sockets ());
  Alcotest.(check int) "positive bounds per-host concurrency" 3
    (Pool.resolve_jobs ~backend:sockets ~jobs:3 ());
  Alcotest.check_raises "negative"
    (Invalid_argument
       "Pool.resolve_jobs: negative job count -2 (use 0 to let each worker \
        daemon decide)")
    (fun () -> ignore (Pool.resolve_jobs ~backend:sockets ~jobs:(-2) ()));
  match
    Drive.scan ~backend:(Pool.Sockets [])
      (Spec.of_golden (Lazy.force hi_golden))
  with
  | _ -> Alcotest.fail "Sockets [] must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Handshake rejection over a real connection                         *)
(* ------------------------------------------------------------------ *)

(* A fake daemon that speaks exactly one scripted reply: how the client
   side's refusal paths are exercised without building a broken real
   daemon.  It runs on a domain, not a forked child — Unix.fork is
   unavailable once earlier suites have spawned domains. *)
let with_fake_server respond f =
  match Transport.listen { Addr.host = "127.0.0.1"; port = 0 } with
  | Error e -> Alcotest.fail e
  | Ok (lfd, addr) ->
      let server =
        Domain.spawn (fun () ->
            match Transport.accept lfd with
            | conn ->
                (try respond conn with _ -> ());
                Transport.close conn
            | exception _ -> ())
      in
      Fun.protect
        ~finally:(fun () ->
          (* Unblock accept if the client never connected. *)
          (match Transport.connect ~timeout:1. addr with
          | Ok c -> Transport.close c
          | Error _ -> ());
          Sysio.close_quietly lfd;
          Domain.join server)
        (fun () -> f addr)

let expect_probe_error what respond check_msg =
  with_fake_server respond (fun addr ->
      match Remote.probe addr with
      | Ok _ -> Alcotest.failf "%s: probe accepted" what
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: error mentions it (%s)" what msg)
            true (check_msg msg))

let test_probe_rejects_bad_peers () =
  let reply h conn =
    (match Transport.recv ~timeout:5. conn with
    | Some (Frame.Hello, _) -> ()
    | _ -> failwith "no hello");
    Transport.send conn Frame.Hello (Handshake.encode h)
  in
  let me = Handshake.hello () in
  expect_probe_error "protocol version"
    (reply { me with Handshake.version = 999 })
    (fun m -> contains m "version");
  expect_probe_error "foreign binary"
    (reply { me with Handshake.digest = String.make 32 'f' })
    (fun m -> contains m "binar" || contains m "digest");
  expect_probe_error "frame garbage"
    (fun conn ->
      ignore (Transport.recv ~timeout:5. conn);
      Sysio.write_string (Transport.fd conn) "HTTP/1.1 400 Bad Request\r\n")
    (fun _ -> true);
  expect_probe_error "immediate close"
    (fun _ -> ())
    (fun m -> contains m "closed")

(* ------------------------------------------------------------------ *)
(* Receive deadline is a whole-frame budget                           *)
(* ------------------------------------------------------------------ *)

(* A slow loris dribbles one byte per interval, each arrival comfortably
   inside a naive per-read timeout: only an absolute whole-frame
   deadline can cut it off.  Regression test for Frame.recv applying
   ?timeout per wait_readable call. *)
let test_recv_whole_frame_deadline () =
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev)
    (fun () ->
      let frame = Frame.encode Frame.Door "h" in
      with_fake_server
        (fun conn ->
          (* Never complete the frame; keep feeding until the client
             hangs up (EPIPE under SIGPIPE-ignore ends the loop). *)
          String.iteri
            (fun i c ->
              if i < String.length frame - 1 then begin
                Sysio.write_string (Transport.fd conn) (String.make 1 c);
                Unix.sleepf 0.2
              end)
            frame)
        (fun addr ->
          match Transport.connect ~timeout:1. addr with
          | Error e -> Alcotest.fail e
          | Ok conn ->
              let t0 = Unix.gettimeofday () in
              (match Transport.recv ~timeout:0.5 conn with
              | exception Frame.Corrupt _ -> ()
              | _ -> Alcotest.fail "dribbled partial frame did not time out");
              let dt = Unix.gettimeofday () -. t0 in
              Transport.close conn;
              Alcotest.(check bool)
                (Printf.sprintf "timed out on total budget (%.2fs)" dt)
                true
                (dt < 1.4)))

(* ------------------------------------------------------------------ *)
(* Loopback differential: Sockets = Processes = Domains = serial      *)
(* ------------------------------------------------------------------ *)

let test_sockets_equal_serial_memory () =
  let serial = Lazy.force hi_serial in
  let spec = Spec.of_golden (Lazy.force hi_golden) in
  with_daemon (fun addr ->
      (* -j 1 and 2 bound per-host concurrency; 0 adopts the daemon's
         advertised capacity. *)
      List.iter
        (fun jobs ->
          let sock =
            Drive.scan ~backend:(sockets_of addr) ~jobs spec
          in
          check_scans_identical
            (Printf.sprintf "hi sockets -j %d = serial" jobs)
            serial sock;
          check_scans_identical
            (Printf.sprintf "hi sockets -j %d = processes" jobs)
            (Drive.scan ~backend:Pool.Processes ~jobs:2 spec)
            sock;
          check_scans_identical
            (Printf.sprintf "hi sockets -j %d = domains" jobs)
            (Drive.scan ~backend:Pool.Domains ~jobs:2 spec)
            sock)
        [ 1; 2; 0 ];
      (* At -j 1 records land in shard order on every backend, so the
         three journals must be byte-identical — one worker loop, one
         record-apply path.  A cache-dir re-run of the cell is then
         served from the published journal. *)
      let policy ?journal ?cache () =
        Spec.make_policy ~shard_size:1 ?journal ?cache ()
      in
      let run ?journal ?cache backend =
        Drive.cell ~backend ~jobs:1
          (Spec.of_golden ~policy:(policy ?journal ?cache ())
             (Lazy.force hi_golden))
      in
      let read path = In_channel.with_open_bin path In_channel.input_all in
      let journal_of label backend =
        with_temp_file (fun path ->
            check_scans_identical
              (label ^ " journaled -j 1 = serial")
              serial (run ~journal:path backend).Engine.scan;
            read path)
      in
      let domains = journal_of "domains" Pool.Domains in
      Alcotest.(check string) "processes journal = domains journal" domains
        (journal_of "processes" Pool.Processes);
      Alcotest.(check string) "sockets journal = domains journal" domains
        (journal_of "sockets" (sockets_of addr));
      let dir = Filename.temp_file "finet" ".store" in
      Sys.remove dir;
      with_temp_file (fun path ->
          Fun.protect
            ~finally:(fun () ->
              Array.iter
                (fun f -> Sys.remove (Filename.concat dir f))
                (Sys.readdir dir);
              Sys.rmdir dir)
            (fun () ->
              let cold = run ~journal:path ~cache:dir (sockets_of addr) in
              Alcotest.(check bool) "cold cache run is a miss" false
                cold.Engine.cached;
              Alcotest.(check string) "cold cache journal = domains journal"
                domains (read path);
              let warm = run ~cache:dir Pool.Processes in
              Alcotest.(check bool) "re-run served from the cache" true
                warm.Engine.cached;
              check_scans_identical "cache hit = journaled run" serial
                warm.Engine.scan)))

let test_sockets_equal_serial_registers () =
  let serial = Lazy.force hi_reg_serial in
  with_daemon (fun addr ->
      check_scans_identical "hi registers sockets = serial" serial
        (Drive.scan ~backend:(sockets_of addr) ~jobs:2 (hi_reg ())))

let test_sockets_matrix () =
  let specs =
    [
      Spec.of_golden (Lazy.force hi_golden);
      hi_reg ();
      Spec.of_golden (Lazy.force flag1_golden);
    ]
  in
  let serials =
    [
      Lazy.force hi_serial;
      Lazy.force hi_reg_serial;
      Lazy.force flag1_serial;
    ]
  in
  with_daemon (fun addr ->
      let snap = ref None in
      let scans =
        Drive.scans ~backend:(sockets_of addr) ~jobs:2
          ~observe:(fun s -> snap := Some s)
          specs
      in
      List.iteri
        (fun i (serial, scan) ->
          check_scans_identical
            (Printf.sprintf "sockets matrix cell %d" i)
            serial scan)
        (List.combine serials scans);
      match !snap with
      | None -> Alcotest.fail "observe never called"
      | Some s ->
          Alcotest.(check bool) "finished" true (Progress.finished s);
          Alcotest.(check int) "all shards" s.Progress.shards_total
            s.Progress.shards_done)

(* ------------------------------------------------------------------ *)
(* Remote crash + resume (the full matrix lives behind @torture)      *)
(* ------------------------------------------------------------------ *)

let with_torture value f =
  Unix.putenv Worker.torture_var value;
  Fun.protect ~finally:(fun () -> Unix.putenv Worker.torture_var "") f

let test_remote_crash_and_resume () =
  let serial = Lazy.force hi_serial in
  let golden = Lazy.force hi_golden in
  with_temp_file (fun path ->
      let spec resume =
        Spec.of_golden
          ~policy:(Spec.make_policy ~journal:path ~resume ~shard_size:1 ())
          golden
      in
      (* The daemon inherits the torture env: remote worker 0 (the
         call's first dial) dies before conducting anything, which
         retires its seat; worker 1 drains the queue.  The unsupervised
         default policy reports the death and keeps the journal
         valid. *)
      with_torture "exit:0:0" (fun () ->
          with_daemon (fun addr ->
              match
                Drive.scan ~backend:(sockets_of addr) ~jobs:2 (spec false)
              with
              | _ -> Alcotest.fail "expected Worker_failed"
              | exception Engine.Worker_failed msg ->
                  Alcotest.(check bool) "names the remote worker" true
                    (contains msg "remote worker")));
      (match Journal.replay path with
      | Some (_, _, Journal.Clean) -> ()
      | _ -> Alcotest.fail "journal not CRC-valid after remote death");
      (* The crashed daemon is gone; a fresh fleet heals the campaign. *)
      with_daemon (fun addr ->
          let resumed =
            Drive.scan ~backend:(sockets_of addr) ~jobs:2 (spec true)
          in
          check_scans_identical "remote crash + resume = serial" serial
            resumed))

(* A worker daemon reaps its finished children while it waits for the
   next connection, so none lingers as a zombie after a call.  The
   children are read from /proc; where that file does not exist the
   check is skipped. *)
let test_daemon_reaps_while_idle () =
  let read path =
    match open_in_bin path with
    | exception Sys_error _ -> None
    | ic ->
        let text = In_channel.input_all ic in
        close_in ic;
        Some text
  in
  let zombies children =
    match read children with
    | None -> []
    | Some text ->
        List.filter
          (fun child ->
            (* The state follows the parenthesised command name. *)
            match read (Printf.sprintf "/proc/%s/stat" child) with
            | Some stat -> (
                match String.rindex_opt stat ')' with
                | Some i when i + 2 < String.length stat -> stat.[i + 2] = 'Z'
                | _ -> false)
            | None -> false)
          (String.split_on_char ' ' (String.trim text)
          |> List.filter (( <> ) ""))
  in
  match
    Remote.spawn_daemon Remote.daemon
      { Remote.default_config with workers = 2 }
  with
  | Error e -> Alcotest.fail e
  | Ok (pid, addr) ->
      let children = Printf.sprintf "/proc/%d/task/%d/children" pid pid in
      Fun.protect
        ~finally:(fun () -> Remote.kill_daemon pid)
        (fun () ->
          if Sys.file_exists children then begin
            check_scans_identical "sockets = serial" (Lazy.force hi_serial)
              (Drive.scan ~backend:(sockets_of addr) ~jobs:2
                 (Spec.of_golden (Lazy.force hi_golden)));
            let deadline = Unix.gettimeofday () +. 3. in
            while zombies children <> [] && Unix.gettimeofday () < deadline do
              Unix.sleepf 0.05
            done;
            Alcotest.(check (list string)) "zombie children 3 s after the call"
              [] (zombies children)
          end)

let suite =
  ( "net-backend",
    [
      Alcotest.test_case "addresses parse and reject" `Quick test_addr;
      Alcotest.test_case "frames roundtrip through a byte stream" `Quick
        test_frame_roundtrip;
      Alcotest.test_case "frames reject corruption" `Quick
        test_frame_rejects_corruption;
      QCheck_alcotest.to_alcotest qcheck_frame_split_invariance;
      QCheck_alcotest.to_alcotest qcheck_frame_mutation_never_misparses;
      Alcotest.test_case "handshake rejects mismatches" `Quick test_handshake;
      Alcotest.test_case "hmac-md5 matches RFC 2202 vectors" `Quick
        test_hmac_vectors;
      Alcotest.test_case "handshake auth: distinct failure modes" `Quick
        test_handshake_auth;
      Alcotest.test_case "worker daemon --secret end-to-end" `Quick
        test_worker_daemon_auth;
      Alcotest.test_case "corpus verify on an armed fleet" `Quick
        test_corpus_verify_armed_fleet;
      Alcotest.test_case "wire jobs roundtrip without closures" `Quick
        test_wire_job;
      Alcotest.test_case "-j bounds per-host concurrency" `Quick
        test_resolve_jobs_sockets;
      Alcotest.test_case "probe rejects wrong peers" `Quick
        test_probe_rejects_bad_peers;
      Alcotest.test_case "recv deadline spans the whole frame" `Quick
        test_recv_whole_frame_deadline;
      Alcotest.test_case "an idle worker daemon reaps its children" `Quick
        test_daemon_reaps_while_idle;
      Alcotest.test_case "sockets = processes = domains = serial (memory)"
        `Slow test_sockets_equal_serial_memory;
      Alcotest.test_case "sockets = serial (registers)" `Slow
        test_sockets_equal_serial_registers;
      Alcotest.test_case "sockets matrix" `Slow test_sockets_matrix;
      Alcotest.test_case "remote crash + resume" `Slow
        test_remote_crash_and_resume;
    ] )
