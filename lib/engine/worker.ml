let env_var = "FI_ENGINE_WORKER"
let torture_var = "FI_ENGINE_TORTURE"
let magic = "fiwork1\n"

type job = {
  spec : Spec.t;
  fingerprint : int;
  shard_ids : int array;
  segment : string;
  index : int;
}

(* The job crosses the pipe as [magic] + [Marshal] with [Closures]: the
   worker is a fork/exec of the very same executable, so code pointers
   captured by a [Spec.Build] thunk relocate correctly. *)
let encode_job (job : job) = magic ^ Marshal.to_string job [ Marshal.Closures ]

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

(* Where one worker's results go once its segment is open: a segment
   file plus the doorbell pipe (fork/exec workers) or [Seg]/[Door]
   frames (remote workers). *)
type sink = {
  append : string -> unit;  (** One durable record payload. *)
  door : string -> unit;  (** One doorbell line, no newline. *)
  tear : unit -> unit;  (** Emit a raw partial record (torture). *)
  close : unit -> unit;
}

(* The torture hook, checked before each shard ([shard_id] set) and
   once after the last.  Poison is keyed by {e plan shard id}, not
   completed-shard count, so the fault deterministically follows one
   coordinate range through any re-dispatch — the shard kills every
   worker it is ever assigned to, which is exactly what quarantine
   exists for. *)
let torture_point torture sink ~index ~completed ~shard_id =
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
          (* A crash mid-append: raw partial record, no newline, then
             die without cleanup. *)
          sink.tear ();
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
            sink.door "h";
            Unix.sleepf 0.02
          done)
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* The worker side                                                    *)
(* ------------------------------------------------------------------ *)

let conduct_job open_sink ~spec ~fingerprint ~shard_ids ~index =
  let cell = Runcell.analyse spec in
  let classes = cell.Runcell.classes in
  let plan = Runcell.plan_of_policy spec.Spec.policy classes in
  let fp = Runcell.fingerprint_cell cell ~plan in
  if fp <> fingerprint then
    failwith
      (Printf.sprintf
         "re-analysed cell fingerprint %s disagrees with the conductor's %s \
          (mismatched build or nondeterministic analysis?)"
         (Crc32.to_hex fp) (Crc32.to_hex fingerprint));
  let shards_total = Array.length plan.Shard.shards in
  Array.iter
    (fun id ->
      if id < 0 || id >= shards_total then
        failwith (Printf.sprintf "shard id %d out of range" id))
    shard_ids;
  let torture = parse_torture (Sys.getenv_opt torture_var) in
  let sink = open_sink (segment_header ~fingerprint:fp ~pid:(Unix.getpid ())) in
  (* Heartbeats: one [h] line per conducted class, throttled, so the
     parent can tell a slow shard from a hung worker.  Lost beats are
     harmless — the deadline just bites a little earlier. *)
  let last_beat = ref 0. in
  let heartbeat ~class_index:_ _ =
    let now = Unix.gettimeofday () in
    if now -. !last_beat >= 0.01 then begin
      last_beat := now;
      sink.door "h"
    end
  in
  Array.iteri
    (fun completed id ->
      torture_point torture sink ~index ~completed ~shard_id:(Some id);
      let shard = plan.Shard.shards.(id) in
      let buf =
        Runcell.conduct_shard ~on_class:heartbeat cell ~classes ~plan shard
      in
      sink.append (Runcell.record_payload shard buf);
      (* Doorbell: the record is durable, the parent may merge it. *)
      sink.door (Printf.sprintf "s %d" id))
    shard_ids;
  torture_point torture sink ~index ~completed:(Array.length shard_ids)
    ~shard_id:None;
  sink.close ();
  sink.door "end"

let serve ~input ~output =
  set_binary_mode_in input true;
  let seen = really_input_string input (String.length magic) in
  if seen <> magic then failwith "worker: bad job magic on stdin";
  let job : job = Marshal.from_channel input in
  let open_sink header =
    let w = Journal.create job.segment ~header in
    {
      append = Journal.append w;
      door =
        (fun line ->
          output_string output line;
          output_char output '\n';
          flush output);
      tear =
        (fun () ->
          let oc =
            open_out_gen [ Open_append; Open_binary ] 0o644 job.segment
          in
          output_string oc "deadbeef torn-rec";
          flush oc);
      close = (fun () -> Journal.close w);
    }
  in
  conduct_job open_sink ~spec:job.spec ~fingerprint:job.fingerprint
    ~shard_ids:job.shard_ids ~index:job.index

let guard () =
  match Sys.getenv_opt env_var with
  | Some "1" ->
      (try serve ~input:stdin ~output:stdout
       with exn ->
         Printf.eprintf "fi worker (pid %d): %s\n%!" (Unix.getpid ())
           (Printexc.to_string exn);
         exit 3);
      exit 0
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* The parent side                                                    *)
(* ------------------------------------------------------------------ *)

type child = {
  pid : int;
  index : int;
  status_fd : Unix.file_descr;
  segment : string;
  assigned : int array;
}

let spawn (job : job) =
  let job_r, job_w = Unix.pipe ~cloexec:true () in
  let st_r, st_w = Unix.pipe ~cloexec:true () in
  let env =
    Array.append (Unix.environment ()) [| Printf.sprintf "%s=1" env_var |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env job_r st_w Unix.stderr
  in
  Unix.close job_r;
  Unix.close st_w;
  (* Ship the job.  The child may already be dead (torture, OOM): a
     broken pipe here is a supervision event, not a parent crash — the
     caller must have SIGPIPE ignored, which turns it into EPIPE. *)
  (try Sysio.write_string job_w (encode_job job)
   with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> ());
  (try Unix.close job_w with Unix.Unix_error _ -> ());
  {
    pid;
    index = job.index;
    status_fd = st_r;
    segment = job.segment;
    assigned = job.shard_ids;
  }

let pid c = c.pid
let index c = c.index
let status_fd c = c.status_fd
let segment c = c.segment
let assigned c = c.assigned
let wait child = snd (Unix.waitpid [] child.pid)

let kill child =
  try Unix.kill child.pid Sys.sigkill
  with Unix.Unix_error _ -> () (* already reaped / gone *)
