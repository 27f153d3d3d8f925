let env_var = "FI_ENGINE_WORKER"
let torture_var = "FI_ENGINE_TORTURE"

(* ------------------------------------------------------------------ *)
(* The wire job                                                       *)
(* ------------------------------------------------------------------ *)

(* Nothing here may capture code: a remote peer is another machine, so
   [Spec.Build] closures cannot cross, and a local child gets the very
   same bytes.  A wire cell is the spec-level cell description — the
   assembled program image plus the policy fields that shape the shard
   plan — and whoever receives one re-derives everything else (golden
   run, fault-space classes, fingerprint) on its own.  Marshal without
   [Closures] is plain portable data; a local child is this executable
   by construction and a remote peer is pinned to it by the handshake's
   binary digest, which makes the marshalling format (and the analysis)
   agree. *)
type wire_cell = {
  benchmark : string;
  variant : string;
  model : Faultspace.model;
  limit : int option;
  shard_size : int option;
  weighted : bool;
  program : Program.t;
}

type wire_job = {
  cell : wire_cell;
  stride : int option;
      (* checkpoint stride — a pure perf knob the worker honours locally;
         deliberately absent from the fingerprint it verifies. *)
  fingerprint : int;
  shard_ids : int array;
  index : int;
}

type 'a codec = string

let codec magic = magic

let encode magic v = magic ^ Marshal.to_string v []

let decode magic s =
  let mlen = String.length magic in
  if String.length s <= mlen || String.sub s 0 mlen <> magic then None
  else match Marshal.from_string s mlen with
    | v -> Some v
    | exception _ -> None

let job_codec : wire_job codec = codec "fi-wire v1\n"

let cell_of_spec ?program (spec : Spec.t) =
  let program =
    match (program, spec.Spec.source) with
    | Some p, _ -> p
    | None, Spec.Analysed_memory g
    | None, Spec.Analysed_registers { Regspace.golden = g; _ } ->
        g.Golden.program
    | None, Spec.Build build -> build ()
  in
  {
    benchmark = spec.Spec.benchmark;
    variant = spec.Spec.variant;
    model = spec.Spec.model;
    limit = spec.Spec.limit;
    shard_size = spec.Spec.policy.Spec.sharding.Spec.shard_size;
    weighted = spec.Spec.policy.Spec.sharding.Spec.weighted;
    program;
  }

(* The receiver's spec: its own execution policy (journalling, resume,
   supervision, caching) around the sender's plan-shaping fields. *)
let spec_of_cell ~policy (c : wire_cell) =
  {
    Spec.benchmark = c.benchmark;
    variant = c.variant;
    model = c.model;
    source = Spec.Build (fun () -> c.program);
    limit = c.limit;
    policy =
      {
        policy with
        Spec.sharding = { Spec.shard_size = c.shard_size; weighted = c.weighted };
      };
  }

(* Everything that determines a cell's results, and nothing that does
   not: the engine's result-store consult and the service's up-front
   routing both key through here. *)
let cell_key (c : wire_cell) =
  Cache.cell_key
    ~image:(Digest.to_hex (Digest.string (Marshal.to_string c.program [])))
    ~space:(Faultspace.tag c.model) ~limit:c.limit ~shard_size:c.shard_size
    ~weighted:c.weighted

let segment_header ~fingerprint ~pid =
  Printf.sprintf "fi-segment v1 fingerprint=%s pid=%d" (Crc32.to_hex fingerprint)
    pid

let segment_fingerprint header =
  let prefix = "fi-segment v1 fingerprint=" in
  let plen = String.length prefix in
  if String.length header >= plen + 8 && String.sub header 0 plen = prefix then
    Crc32.of_hex (String.sub header plen 8)
  else None

(* ------------------------------------------------------------------ *)
(* Torture hook (crash injection for the engine's own tests)          *)
(* ------------------------------------------------------------------ *)

type torture_mode = Exit | Raise | Sigkill | Torn | Hang | Stall | Poison

type torture = { mode : torture_mode; after : int; only : int option }

let parse_torture = function
  | None | Some "" -> None
  | Some s -> (
      let mode_of = function
        | "exit" -> Some Exit
        | "raise" -> Some Raise
        | "sigkill" -> Some Sigkill
        | "torn" -> Some Torn
        | "hang" -> Some Hang
        | "stall" -> Some Stall
        | "poison" -> Some Poison
        | _ -> None
      in
      match String.split_on_char ':' s with
      | [ m; n ] -> (
          match (mode_of m, int_of_string_opt n) with
          | Some mode, Some after -> Some { mode; after; only = None }
          | _ -> None)
      | [ m; n; w ] -> (
          match (mode_of m, int_of_string_opt n, int_of_string_opt w) with
          | Some mode, Some after, Some only ->
              Some { mode; after; only = Some only }
          | _ -> None)
      | _ -> None)

(* The torture hook, checked before each shard ([shard_id] set) and
   once after the last.  Poison is keyed by {e plan shard id}, not
   completed-shard count, so the fault deterministically follows one
   coordinate range through any re-dispatch — the shard kills every
   worker it is ever assigned to, which is exactly what quarantine
   exists for. *)
let torture_point torture conn ~index ~completed ~shard_id =
  match torture with
  | Some t when t.only = None || t.only = Some index -> (
      match t.mode with
      | Poison ->
          if shard_id = Some t.after then Unix.kill (Unix.getpid ()) Sys.sigkill
      | _ when completed <> t.after -> ()
      | Exit -> exit 7
      | Raise -> failwith "torture: injected worker fault"
      | Sigkill -> Unix.kill (Unix.getpid ()) Sys.sigkill
      | Torn ->
          (* A crash mid-record: a CRC-invalid record line, then die
             without cleanup. *)
          Transport.send conn Frame.Seg "deadbeef torn-rec";
          Unix.kill (Unix.getpid ()) Sys.sigkill
      | Hang ->
          (* Silent wedge: no heartbeat, no progress, never exits.  Only
             the parent's deadline can end this worker. *)
          while true do
            Unix.sleep 3600
          done
      | Stall ->
          (* Livelock: the worker stays chatty — heartbeats keep
             flowing — but shard progress stops forever. *)
          while true do
            Transport.send conn Frame.Door "h";
            Unix.sleepf 0.02
          done)
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* The worker side                                                    *)
(* ------------------------------------------------------------------ *)

let conduct_job conn (job : wire_job) =
  (* Only the plan-shaping fields (plus the checkpoint stride, so the
     worker accelerates the same way) cross the wire: journalling,
     resume and supervision belong to the conducting parent. *)
  let policy = Spec.make_policy ?checkpoint_stride:job.stride () in
  let spec = spec_of_cell ~policy job.cell in
  let cell = Runcell.analyse spec in
  let classes = cell.Faultspace.classes in
  let plan = Runcell.plan_of_policy spec.Spec.policy classes in
  let fp = Runcell.fingerprint_cell cell ~plan in
  if fp <> job.fingerprint then
    failwith
      (Printf.sprintf
         "re-analysed cell fingerprint %s disagrees with the conductor's %s \
          (mismatched build or nondeterministic analysis?)"
         (Crc32.to_hex fp) (Crc32.to_hex job.fingerprint));
  let shards_total = Array.length plan.Shard.shards in
  Array.iter
    (fun id ->
      if id < 0 || id >= shards_total then
        failwith (Printf.sprintf "shard id %d out of range" id))
    job.shard_ids;
  let torture = parse_torture (Sys.getenv_opt torture_var) in
  let seg payload = Transport.send conn Frame.Seg (Journal.encode_line payload) in
  let door = Transport.send conn Frame.Door in
  seg (segment_header ~fingerprint:fp ~pid:(Unix.getpid ()));
  (* Heartbeats: one [h] frame per conducted class, throttled, so the
     parent can tell a slow shard from a hung worker. *)
  let last_beat = ref 0. in
  let heartbeat ~class_index:_ _ =
    let now = Unix.gettimeofday () in
    if now -. !last_beat >= 0.01 then begin
      last_beat := now;
      door "h"
    end
  in
  Array.iteri
    (fun completed id ->
      torture_point torture conn ~index:job.index ~completed ~shard_id:(Some id);
      let shard = plan.Shard.shards.(id) in
      let buf =
        Runcell.conduct_shard ~on_class:heartbeat cell ~classes ~plan shard
      in
      seg (Runcell.record_payload shard buf);
      door (Printf.sprintf "s %d" id))
    job.shard_ids;
  torture_point torture conn ~index:job.index
    ~completed:(Array.length job.shard_ids) ~shard_id:None;
  door "end"

let serve_job ?timeout conn =
  match Transport.recv ?timeout conn with
  | None -> () (* the peer left without a job — a probe *)
  | Some (Frame.Job, payload) -> (
      match decode job_codec payload with
      | None -> failwith "undecodable job payload"
      | Some job -> conduct_job conn job)
  | Some (kind, _) ->
      failwith
        (Printf.sprintf "expected a job frame, got %s" (Frame.kind_tag kind))

let guard () =
  match Sys.getenv_opt env_var with
  | Some "1" ->
      (try serve_job (Transport.of_fd ~peer:"parent" Unix.stdin)
       with exn ->
         Printf.eprintf "fi worker (pid %d): %s\n%!" (Unix.getpid ())
           (Printexc.to_string exn);
         exit 3);
      exit 0
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* The parent side                                                    *)
(* ------------------------------------------------------------------ *)

let spawn (job : wire_job) =
  let mine, theirs =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let env =
    Array.append (Unix.environment ()) [| Printf.sprintf "%s=1" env_var |]
  in
  (* The child's stdout goes to our stderr: whatever the hosting binary
     prints can never reach the frame stream or our own stdout. *)
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env theirs Unix.stderr Unix.stderr
  in
  Unix.close theirs;
  let conn = Transport.of_fd ~peer:(Printf.sprintf "pid %d" pid) mine in
  (* Ship the job.  The child may already be dead (torture, OOM): a
     broken connection here is a supervision event, not a parent crash
     — the caller must have SIGPIPE ignored, which turns it into
     EPIPE. *)
  (try Transport.send conn Frame.Job (encode job_codec job)
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
     ());
  (pid, conn)
