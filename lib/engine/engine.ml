exception Journal_mismatch = Runcell.Journal_mismatch

exception Worker_failed of string

let mismatch = Runcell.mismatch

(* ------------------------------------------------------------------ *)
(* Campaign identity (public API; the definitions live in Runcell)     *)
(* ------------------------------------------------------------------ *)

let fingerprint_spec spec =
  let cell = Runcell.analyse spec in
  let plan = Runcell.plan_of_policy spec.Spec.policy cell.Faultspace.classes in
  Runcell.fingerprint_cell cell ~plan

(* ------------------------------------------------------------------ *)
(* Results (scan + quarantine report)                                 *)
(* ------------------------------------------------------------------ *)

type quarantined = {
  q_cell : string;
  q_shard : int;
  q_classes : int;
  q_class_indices : int array;
  q_attempts : int;
  q_cause : string;
}

type result = {
  scan : Scan.t;
  quarantined : quarantined list;
  cached : bool;  (** Served from the result store — zero shards executed. *)
}

(* ------------------------------------------------------------------ *)
(* Journal resolution (explicit path or fingerprint path)             *)
(* ------------------------------------------------------------------ *)

(* Without a journal directory, a cell with a result cache journals
   into the store's own layout: publishing needs a journal on disk. *)
let resolve_journal ~fingerprint (policy : Spec.policy) =
  match policy.Spec.durability with
  | { Spec.journal = Some path; _ } -> Some path
  | { Spec.catalogue; _ } ->
      Option.map
        (fun dir ->
          Cache.ensure_dir dir;
          Cache.journal_path ~dir ~fingerprint)
        (match catalogue with
        | Some _ -> catalogue
        | None -> policy.Spec.acceleration.Spec.cache)

(* ------------------------------------------------------------------ *)
(* Shard records                                                      *)
(* ------------------------------------------------------------------ *)

(* Split a replayed journal into its shard records (each shard at most
   once) and its supervision records.  Anything else raises
   [Journal_mismatch]. *)
let parse_journal plan payloads =
  let seen = Array.make (Array.length plan.Shard.shards) false in
  List.partition_map
    (fun payload ->
      match Runcell.parse_supervision payload with
      | Some sup -> Either.Right sup
      | None -> (
          match Runcell.parse_record plan payload with
          | Some ((shard : Shard.t), _) when seen.(shard.Shard.id) ->
              mismatch "journal has duplicate record for shard %d"
                shard.Shard.id
          | Some ((shard : Shard.t), outs) ->
              seen.(shard.Shard.id) <- true;
              Either.Left (shard, outs)
          | None -> mismatch "journal has malformed record %S" payload))
    payloads

(* ------------------------------------------------------------------ *)
(* Per-cell runtime: the one set of counters                          *)
(* ------------------------------------------------------------------ *)

type runtime = {
  spec : Spec.t;
  cell : Faultspace.cell;
  plan : Shard.plan;
  fp : int;
  outcomes : Bytes.t;  (** Per slot, its journal character. *)
  tally : Outcome.tally;
  shard_done : bool array;
  retries : int array;  (** Retry attempts burned, per shard. *)
  quarantined : bool array;
  mutable q_info : (int * int * string) list;  (** Newest first. *)
  journal_path : string option;
  writer : Journal.writer option;
  cache_key : string option;  (** {!Worker.cell_key}, when caching is on. *)
  from_cache : bool;  (** Whole cell replayed from the result store. *)
  resumed_classes : int;
  resumed_shards : int;
  mutable classes_done : int;
  mutable shards_done : int;
  mutable requeues : int;  (** Supervision re-dispatches. *)
}

(* Workers started (spawned or dialled) and killed on the shard deadline:
   per call, since workers outlive cells. *)
type counters = { mutable starts : int; mutable kills : int }

(* The one apply, for a resumed, cached or conducted shard alike: copy
   each class's eight record characters into its slots, tally them, and
   mark the shard done. *)
let apply rt (shard : Shard.t) outs =
  for k = 0 to Shard.classes_in shard - 1 do
    let class_index = rt.plan.Shard.order.(shard.Shard.lo + k) in
    Bytes.blit_string outs (8 * k) rt.outcomes (8 * class_index) 8
  done;
  String.iter
    (fun c -> Outcome.tally_add rt.tally (Option.get (Outcome.of_char c)))
    outs;
  rt.shard_done.(shard.Shard.id) <- true;
  rt.classes_done <- rt.classes_done + Shard.classes_in shard;
  rt.shards_done <- rt.shards_done + 1

let journal rt payload =
  Option.iter (fun w -> Journal.append w payload) rt.writer

let pending rt =
  List.filter
    (fun (s : Shard.t) -> not rt.shard_done.(s.Shard.id))
    (Array.to_list rt.plan.Shard.shards)

(* Result-store consult.  The cell key fingerprints everything that
   determines results (program image × fault space × plan-shaping
   policy); a published journal under that key replays through the same
   parse/apply path a --resume uses, so a hit is bit-identical to a
   fresh run and costs zero shard executions.  Anything short of a
   complete, header-matching, every-shard-covered journal is a miss — in
   particular a quarantine-degraded journal, which lacks records for its
   quarantined shards.  The journal is parsed in full before any state
   is touched, so a miss falls through to conducting normally. *)
let cached_records ~plan ~fp ~header ~dir key =
  match Cache.lookup ~dir key with
  | Some e when e.Cache.fingerprint = fp -> (
      match Journal.replay e.Cache.path with
      | Some (hdr, payloads, Journal.Clean) when hdr = header -> (
          match parse_journal plan payloads with
          | records, _ when List.length records = Array.length plan.Shard.shards
            ->
              Some records
          | _ -> None
          | exception Journal_mismatch _ -> None)
      | Some _ | None | (exception Sys_error _) -> None)
  | Some _ | None -> None

(* Reopen [path] to resume it: its writer, shard records and
   supervision records, or a fresh journal when there is none (or only a
   torn header).  Every refusal closes the writer it opened. *)
let resume_journal ~plan ~header path =
  match Journal.open_resume path with
  | Error line ->
      mismatch
        "journal %s: CRC-invalid record at line %d — refusing to resume a \
         corrupt journal (a crash leaves a torn tail, not mid-file \
         corruption); delete it to re-run from scratch"
        path line
  | Ok None -> (Journal.create path ~header, [], [])
  | Ok (Some (w, hdr, payloads)) -> (
      try
        if hdr <> header then
          mismatch
            "journal %s belongs to a different campaign\n\
            \  journal: %s\n\
            \  current: %s"
            path hdr header;
        let records, sups = parse_journal plan payloads in
        (w, records, sups)
      with Journal_mismatch _ as e ->
        Journal.close w;
        raise e)

let setup spec cell =
  let policy = spec.Spec.policy in
  let plan = Runcell.plan_of_policy policy cell.Faultspace.classes in
  let fp = Runcell.fingerprint_cell cell ~plan in
  let header = Runcell.header_payload cell ~plan ~fp in
  let cache_key =
    Option.map
      (fun _ ->
        Worker.cell_key
          (Worker.cell_of_spec ~program:cell.Faultspace.golden.Golden.program
             spec))
      policy.Spec.acceleration.Spec.cache
  in
  let cached =
    match (policy.Spec.acceleration.Spec.cache, cache_key) with
    | Some dir, Some key -> cached_records ~plan ~fp ~header ~dir key
    | _ -> None
  in
  let journal_path =
    if cached <> None then None else resolve_journal ~fingerprint:fp policy
  in
  let writer, records, sups =
    match (cached, journal_path) with
    | Some records, _ -> (None, records, [])
    | None, None -> (None, [], [])
    | None, Some path when policy.Spec.durability.Spec.resume ->
        let w, records, sups = resume_journal ~plan ~header path in
        (Some w, records, sups)
    | None, Some path -> (Some (Journal.create path ~header), [], [])
  in
  let shards = Array.length plan.Shard.shards in
  let rt =
    {
      spec;
      cell;
      plan;
      fp;
      outcomes =
        Bytes.make (8 * plan.Shard.classes_total)
          (Outcome.to_char Outcome.No_effect);
      tally = Outcome.tally_create ();
      shard_done = Array.make shards false;
      retries = Array.make shards 0;
      quarantined = Array.make shards false;
      q_info = [];
      journal_path;
      writer;
      cache_key;
      from_cache = cached <> None;
      resumed_classes = 0;
      resumed_shards = 0;
      classes_done = 0;
      shards_done = 0;
      requeues = 0;
    }
  in
  List.iter (fun (shard, outs) -> apply rt shard outs) records;
  List.iter
    (function
      | Runcell.Retry { shard; attempt; _ } ->
          (* Resume composes with retry accounting: the budget a shard
             burned before the crash stays burned. *)
          if shard >= 0 && shard < shards then
            rt.retries.(shard) <- max rt.retries.(shard) attempt
      | Runcell.Quarantine _ ->
          (* Informational: a resumed campaign gives the shard a fresh
             dispatch (its burned retries above still count). *)
          ())
    sups;
  { rt with resumed_classes = rt.classes_done; resumed_shards = rt.shards_done }

(* The matrix-wide progress snapshot: a fold over the cells' own
   counters, plus the call's worker counters. *)
let snapshot ~t0 ~counters rts =
  let sum f = List.fold_left (fun acc rt -> acc + f rt) 0 rts in
  let tally = Outcome.tally_create () in
  List.iter (fun rt -> Outcome.tally_merge ~into:tally rt.tally) rts;
  Progress.make
    ~classes_done:(sum (fun rt -> rt.classes_done))
    ~classes_total:(sum (fun rt -> rt.plan.Shard.classes_total))
    ~shards_done:(sum (fun rt -> rt.shards_done))
    ~shards_total:(sum (fun rt -> Array.length rt.plan.Shard.shards))
    ~resumed_classes:(sum (fun rt -> rt.resumed_classes))
    ~retries:(sum (fun rt -> rt.requeues))
    ~kills:counters.kills ~starts:counters.starts
    ~quarantined_shards:(sum (fun rt -> List.length rt.q_info))
    ~quarantined_classes:
      (sum (fun rt ->
           List.fold_left
             (fun acc (id, _, _) ->
               acc + Shard.classes_in rt.plan.Shard.shards.(id))
             0 rt.q_info))
    ~elapsed:(Unix.gettimeofday () -. t0)
    ~tally ()

(* The one completion path of every backend: apply a conducted shard's
   record, journal it, and report progress. *)
let complete ~emit rt shard outs =
  apply rt shard outs;
  journal rt (Runcell.record_payload shard (Bytes.of_string outs));
  emit ()

let finish rt =
  assert (
    Array.for_all Fun.id
      (Array.mapi (fun i d -> d || rt.quarantined.(i)) rt.shard_done));
  let cell = rt.cell in
  (* Deterministic merge: the serial loop's own construction.
     Quarantined classes keep the No_effect placeholder — callers must
     consult [quarantined] before treating the scan as complete. *)
  let scan =
    Scan.of_outcomes ~variant:rt.spec.Spec.variant
      ~ram_bytes:cell.Faultspace.ram_bytes
      ~benign_weight:cell.Faultspace.benign_weight ~slots:cell.Faultspace.slots
      cell.Faultspace.golden cell.Faultspace.classes rt.outcomes
  in
  let quarantined =
    List.rev_map
      (fun (shard_id, attempts, cause) ->
        let s = rt.plan.Shard.shards.(shard_id) in
        {
          q_cell = Spec.label rt.spec;
          q_shard = shard_id;
          q_classes = Shard.classes_in s;
          q_class_indices =
            Array.init (Shard.classes_in s) (fun k ->
                rt.plan.Shard.order.(s.Shard.lo + k));
          q_attempts = attempts;
          q_cause = cause;
        })
      rt.q_info
  in
  (* Publish to the result store only what a future consult can trust
     blindly: a freshly conducted cell whose every shard completed and
     whose journal is on disk.  A quarantined cell never publishes — its
     journal lacks the quarantined shards' records, and serving it as a
     hit would launder a degraded run into a complete one. *)
  (match
     ( rt.spec.Spec.policy.Spec.acceleration.Spec.cache,
       rt.cache_key,
       rt.journal_path )
   with
  | Some dir, Some key, Some path
    when (not rt.from_cache) && quarantined = []
         && Array.for_all Fun.id rt.shard_done -> (
      try Cache.publish ~dir ~key ~fingerprint:rt.fp ~path
      with Sys_error _ | Unix.Unix_error _ -> ())
  | _ -> ());
  { scan; quarantined; cached = rt.from_cache }

(* ------------------------------------------------------------------ *)
(* Domains backend                                                    *)
(* ------------------------------------------------------------------ *)

(* One shared pool over every pending shard of every cell; tasks are
   claimed in cell order, so workers drain cell 1 first but spill into
   cell 2 as soon as slots free up — no back-to-back barrier between
   cells.  Supervision here is report-only: domains share the heap and
   cannot be SIGKILLed, so a blown deadline fires [on_event] and the
   pool still joins every domain. *)
let conduct_domains ~jobs ~on_event ~emit rts =
  let pending =
    Array.of_list
      (List.concat_map (fun rt -> List.map (fun s -> (rt, s)) (pending rt)) rts)
  in
  let mu = Mutex.create () in
  let deadline =
    List.fold_left
      (fun acc rt ->
        match
          (rt.spec.Spec.policy.Spec.supervision.Spec.shard_timeout, acc)
        with
        | None, acc -> acc
        | Some t, None -> Some t
        | Some t, Some a -> Some (Float.min t a))
      None rts
  in
  let on_stall ~stalled_for =
    on_event
      (Printf.sprintf
         "domain pool stalled: no shard completed for %.1fs (hung domain?) \
          — still waiting, domains cannot be killed"
         stalled_for)
  in
  Pool.run ?deadline ~on_stall ~jobs ~tasks:(Array.length pending) (fun i ->
      let rt, shard = pending.(i) in
      let buf =
        Runcell.conduct_shard rt.cell ~classes:rt.cell.Faultspace.classes
          ~plan:rt.plan shard
      in
      Mutex.protect mu (fun () -> complete ~emit rt shard (Bytes.to_string buf)))

(* ------------------------------------------------------------------ *)
(* Worker backends (Processes and Sockets): the one supervisor        *)
(* ------------------------------------------------------------------ *)

(* Where a worker seat lives: this machine (a fork/exec'd child) or a
   {!Remote} daemon.  The processes backend has [jobs] [Local] seats,
   the sockets backend each probed daemon's slots. *)
type host = Local | Remote of Addr.t

(* How the supervisor stops a worker, a {!Transport.conn} speaking the
   {!Worker} frame protocol: a local child is SIGKILLed and reaped, its
   exit status explaining it; a remote one loses its connection.  A
   failed dial is a connectionless [Teardown] worker, born ended, so
   refusals and dead hosts earn retries, backoff and quarantine like
   any other worker death. *)
type stop = Sigkill of int | Teardown of Addr.t

(* One record per started worker: its frame stream, its job in flight,
   heartbeat clocks, and what became of it.  A worker outlives its
   jobs. *)
type tracked = {
  conn : Transport.conn option;  (** [None] only when a dial failed. *)
  stop : stop;
  index : int;  (** Start ordinal within the call. *)
  mutable cell : int;  (** Its latest job's cell. *)
  mutable shards : int list;
      (** The job's shards not yet recorded, in order; [[]] when idle. *)
  mutable completed : int;  (** Shards completed over its lifetime. *)
  mutable closing : bool;  (** Half-closed: no more jobs will come. *)
  mutable last_beat : float;  (** Last doorbell activity seen. *)
  mutable last_progress : float;
      (** Last [s]/[end] doorbell line, or its dispatch or close since. *)
  mutable header_ok : bool;
  mutable corrupt : string option;
  mutable killed : string option;  (** Supervisor teardown reason. *)
  mutable wire_err : string option;
      (** [Err] frame, frame corruption or failed dial. *)
  mutable eof : bool;
  mutable status : Unix.process_status option;  (** A local child's. *)
}

(* A seat's worker starts on its first dispatch and is replaced only
   when it dies; a death without supervision retires the seat. *)
type seat = {
  host : host;
  mutable worker : tracked option;
  mutable retired : bool;
}

let who t =
  match t.stop with
  | Sigkill pid -> Printf.sprintf "worker %d (pid %d)" t.index pid
  | Teardown addr ->
      Printf.sprintf "remote worker %d (%s)" t.index (Addr.to_string addr)

(* End a worker's stream: close the connection and reap a local child,
   SIGKILLing it first when it may still be running. *)
let end_stream ?(kill = false) t =
  t.eof <- true;
  match t.stop with
  | Sigkill pid ->
      if kill then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      Option.iter Transport.close t.conn;
      t.status <- Some (snd (Unix.waitpid [] pid))
  | Teardown _ -> Option.iter Transport.close t.conn

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigsegv then "SIGSEGV"
  else Printf.sprintf "signal %d" s

(* A worker's cause of death.  A local child is judged by its exit
   status before anything its connection showed: a frame cut short by
   its death is its torn tail, not wire corruption. *)
let status_cause t =
  let describe = function
    | Unix.WEXITED 0 -> "exited 0 with unfinished shards"
    | Unix.WEXITED n -> Printf.sprintf "exited with code %d" n
    | Unix.WSIGNALED s -> Printf.sprintf "was killed by %s" (signal_name s)
    | Unix.WSTOPPED s -> Printf.sprintf "stopped by %s" (signal_name s)
  in
  match (t.killed, t.corrupt, t.status, t.wire_err) with
  | Some reason, _, _, _ | None, Some reason, _, _ -> reason
  | None, None, Some st, None -> describe st
  | None, None, Some st, Some _ when st <> Unix.WEXITED 0 -> describe st
  | None, None, _, Some err -> err
  | None, None, None, None -> "closed its connection with unfinished shards"

(* Doorbell lines ([Door] frames): [h] is a heartbeat, [s <id>] and
   [end] are shard progress (and count as beats too).  Distinguishing
   beats from progress is what separates a hung worker (silent) from a
   stalled one (chatty, but going nowhere). *)
let note_door_line t line now =
  if line = "end" || (String.length line >= 2 && String.sub line 0 2 = "s ")
  then begin
    t.last_beat <- now;
    t.last_progress <- now
  end
  else if line = "h" then t.last_beat <- now

(* The one merge path: [Seg] lines are CRC-guarded journal lines (every
   job's header, then its record), so the dedup / fingerprint /
   corruption verdicts are the same for every worker.  A job's record
   ends it: the next [Seg] is the next job's header. *)
let merge_line ~emit rt t line =
  if t.corrupt = None then
    match Journal.decode_line line with
    | None -> t.corrupt <- Some "sent a CRC-invalid record line"
    | Some payload -> (
        if not t.header_ok then
          match Worker.segment_fingerprint payload with
          | Some fp when fp = rt.fp -> t.header_ok <- true
          | Some _ -> t.corrupt <- Some "sent a header for a different campaign"
          | None -> t.corrupt <- Some "sent a malformed header line"
        else
          match (Runcell.parse_record rt.plan payload, t.shards) with
          | None, _ -> t.corrupt <- Some "sent a malformed shard record"
          | Some (shard, outs), id :: rest when id = shard.Shard.id ->
              t.shards <- rest;
              t.completed <- t.completed + 1;
              if not rt.shard_done.(id) then complete ~emit rt shard outs
          | Some _, _ ->
              t.corrupt <- Some "sent a record for a shard it was not given")

let handle_frame ~emit rt t (kind, payload) =
  match kind with
  | Frame.Door -> note_door_line t payload (Unix.gettimeofday ())
  | Frame.Seg -> merge_line ~emit rt t payload
  | Frame.Err ->
      if t.wire_err = None then
        t.wire_err <- Some (Printf.sprintf "reported: %s" payload)
  | Frame.Hello | Frame.Job | Frame.Submit | Frame.Stat | Frame.Prog
  | Frame.Res ->
      if t.wire_err = None then
        t.wire_err <-
          Some
            (Printf.sprintf "sent an unexpected %s frame" (Frame.kind_tag kind))

(* When supervision is on but no [--shard-timeout] was given and no
   shard has completed yet, this ceiling bounds the wait for the very
   first completion (otherwise a campaign whose every worker hangs at
   shard 0 would give the derived deadline nothing to derive from). *)
let bootstrap_deadline = 60.

(* Base, in seconds, of the exponential re-dispatch backoff: a shard's
   [n]-th retry waits [retry_backoff × 2ⁿ⁻¹]. *)
let retry_backoff = 0.05

(* The shard deadline: explicit policy, else derived from the observed
   shard rate (8× the mean per-worker shard time seen so far across the
   matrix), else the bootstrap ceiling. *)
let shard_deadline ~t0 ~capacity rts policy =
  if not (Spec.supervised policy) then None
  else
    match policy.Spec.supervision.Spec.shard_timeout with
    | Some t -> Some t
    | None ->
        let completions =
          List.fold_left
            (fun acc rt -> acc + rt.shards_done - rt.resumed_shards)
            0 rts
        in
        if completions > 0 then
          Some
            (Float.max 1.0
               (8. *. float_of_int capacity
               *. (Unix.gettimeofday () -. t0)
               /. float_of_int completions))
        else Some bootstrap_deadline

(* The dispatch queue holds [(cell, shard id, not-before)] over every
   cell's pending shards, in cell then shard order.  The next job is its
   first eligible shard and up to [size - 1] eligible shards of the same
   cell behind it. *)
let pop_job queue ~size now =
  let rec go cell n taken kept = function
    | ((c, id, nb) as item) :: rest
      when n < size && Option.fold ~none:true ~some:(( = ) c) cell ->
        if nb <= now then go (Some c) (n + 1) (id :: taken) kept rest
        else go cell n taken (item :: kept) rest
    | rest ->
        queue := List.rev_append kept rest;
        Option.map (fun c -> (c, List.rev taken)) cell
  in
  go None 0 [] [] !queue

(* Settle a worker whose stream has ended, and free its seat.  With
   supervision off (the library default policy), a dead or corrupt
   worker is recorded in [failures] and reported once the queue has been
   driven as far as it will go.  With supervision on, its unfinished
   shards are re-dispatched (bounded, with backoff), and a shard that
   exhausts its budget is quarantined or failed per policy. *)
let settle ~on_event ~emit cells queue failures seat t =
  seat.worker <- None;
  let rt = cells.(t.cell) in
  let policy = rt.spec.Spec.policy in
  let max_retries = policy.Spec.supervision.Spec.max_retries in
  let label = Spec.label rt.spec in
  let unfinished = t.shards in
  let requeue ids nb =
    queue :=
      List.merge compare (List.map (fun id -> (t.cell, id, nb)) ids) !queue
  in
  let clean =
    t.killed = None && t.corrupt = None && t.wire_err = None && unfinished = []
    && match t.status with None | Some (Unix.WEXITED 0) -> true | Some _ -> false
  in
  if not clean then begin
    let cause = status_cause t in
    let who = who t in
    if not (Spec.supervised policy) then begin
      (* Nothing retries, so the seat retires rather than repeat the
         death; the other seats still drain the queue, and the shards
         behind the one it died on, for maximal journal progress for
         --resume. *)
      seat.retired <- true;
      (match unfinished with _ :: rest -> requeue rest 0. | [] -> ());
      failures :=
        Printf.sprintf "%s: %s %s%s" label who cause
          (match unfinished with
          | [] -> ""
          | id :: _ ->
              Printf.sprintf
                "; shard %d unfinished — run again with --resume to replay" id)
        :: !failures
    end
    else
      match unfinished with
      | [] ->
          (* Died idle, closing, or after its job's record: nothing to
             recover. *)
          on_event
            (Printf.sprintf
               "%s: %s %s (all assigned shards complete; nothing to retry)"
               label who cause)
      | first :: rest ->
          (* Retry charging: a death charges [first] — the shard being
             conducted — only when the worker completed NO shard in its
             whole lifetime; then [first] is the prime suspect.  A worker
             that completed shards before dying is evidence of a
             transient or positional fault, and with jobs as small as one
             shard a per-job rule would let sustained churn quarantine
             healthy shards (every death would bill whichever shard
             happened to be in flight).  Termination is preserved: a
             worker dies once, so every uncharged requeue comes with at
             least one newly completed shard — at most [shards_total] of
             them — and a genuinely poisoned shard still converges to
             quarantine, because every fresh worker it kills is
             charged. *)
          let progressed = t.completed > 0 in
          if not progressed then rt.retries.(first) <- rt.retries.(first) + 1;
          let attempt = rt.retries.(first) in
          if (not progressed) && attempt > max_retries then
            if policy.Spec.supervision.Spec.quarantine then begin
              rt.quarantined.(first) <- true;
              rt.q_info <- (first, attempt, cause) :: rt.q_info;
              journal rt
                (Runcell.supervision_payload
                   (Runcell.Quarantine
                      { shard = first; attempts = attempt; cause }));
              on_event
                (Printf.sprintf
                   "%s: shard %d quarantined after %d failed attempt%s (last: \
                    %s %s)"
                   label first attempt
                   (if attempt > 1 then "s" else "")
                   who cause);
              requeue rest (Unix.gettimeofday ());
              emit ()
            end
            else begin
              failures :=
                Printf.sprintf
                  "%s: shard %d failed %d time%s (last: %s %s); retry budget \
                   exhausted — run again with --resume to replay"
                  label first attempt
                  (if attempt > 1 then "s" else "")
                  who cause
                :: !failures;
              (* Still drive the untouched shards to completion: maximal
                 journal progress for --resume. *)
              requeue rest (Unix.gettimeofday ())
            end
          else begin
            (* Journal the budget change only when there is one:
               uncharged requeues leave nothing for --resume to
               restore. *)
            if not progressed then
              journal rt
                (Runcell.supervision_payload
                   (Runcell.Retry { shard = first; attempt; cause }));
            rt.requeues <- rt.requeues + 1;
            let delay =
              retry_backoff *. (2. ** float_of_int (max 0 (attempt - 1)))
            in
            requeue unfinished (Unix.gettimeofday () +. delay);
            on_event
              (Printf.sprintf "%s: %s %s; retrying shard%s %s (%s, backoff %.2fs)"
                 label who cause
                 (if List.length unfinished > 1 then "s" else "")
                 (String.concat "," (List.map string_of_int unfinished))
                 (if progressed then "no charge — worker had completed shards"
                  else
                    Printf.sprintf "attempt %d/%d for shard %d" attempt
                      max_retries first)
                 delay);
            emit ()
          end
  end

(* Drive every cell's pending shards over one fixed seat table: one
   dispatch queue, and an idle seat pulls its next job from it.  Every
   worker, local or remote, is a connection carrying [Seg]/[Door]
   frames, merged into its job's campaign journal as they arrive; it
   keeps its seat across jobs and cells, and is half-closed once the
   queue holds nothing more.  A dead, hung or stalled worker settles
   through {!settle}.  Returns the failures to raise. *)
let supervise ?secret ~on_event ~emit ~t0 ~counters seats rts =
  let cells = Array.of_list rts in
  let capacity = Array.length seats in
  let queue =
    ref
      (List.concat
         (List.mapi
            (fun c rt ->
              List.map (fun (s : Shard.t) -> (c, s.Shard.id, 0.)) (pending rt))
            rts))
  in
  let failures = ref [] in
  (* Hosts whose last dial failed: re-dials get a short patience so a
     dead host stalls the (blocking, serial) dispatch path for a couple
     of seconds, not the full connect+handshake timeouts on every
     backoff round. *)
  let suspect_hosts : (Addr.t, unit) Hashtbl.t = Hashtbl.create 4 in
  let redial_patience = 2.0 in
  let live () =
    Array.fold_right
      (fun seat acc ->
        match seat.worker with Some t when not t.eof -> t :: acc | _ -> acc)
      seats []
  in
  let idle seat =
    match seat.worker with
    | None -> not seat.retired
    | Some t -> t.shards = [] && not (t.closing || t.eof)
  in
  let start host =
    let index = counters.starts in
    counters.starts <- index + 1;
    let now = Unix.gettimeofday () in
    let track ?err conn stop =
      {
        conn;
        stop;
        index;
        cell = 0;
        shards = [];
        completed = 0;
        closing = false;
        last_beat = now;
        last_progress = now;
        header_ok = false;
        corrupt = None;
        killed = None;
        wire_err = err;
        eof = Option.is_none conn;
        status = None;
      }
    in
    match host with
    | Local ->
        let pid, conn = Worker.spawn () in
        track (Some conn) (Sigkill pid)
    | Remote addr -> (
        let patience =
          if Hashtbl.mem suspect_hosts addr then Some redial_patience else None
        in
        match Remote.dial ?patience ?secret addr with
        | Ok conn ->
            Hashtbl.remove suspect_hosts addr;
            track (Some conn) (Teardown addr)
        | Error msg ->
            Hashtbl.replace suspect_hosts addr ();
            track ~err:msg None (Teardown addr))
  in
  (* Fill the idle seats, starting a worker where a seat has none.  A
     job takes a [1 / (2 × seats)] share of the queue (guided
     self-scheduling: long jobs while the queue is long, single shards
     at its tail).  Once the queue is empty, half-close the idle workers
     so each reads EOF and exits, held to the deadline until it does. *)
  let dispatch () =
    let now = Unix.gettimeofday () in
    Array.iter
      (fun seat ->
        if idle seat then
          let size = max 1 (List.length !queue / (2 * capacity)) in
          match (pop_job queue ~size now, seat.worker) with
          | Some (c, ids), worker ->
              let rt = cells.(c) in
              let t =
                match worker with Some t -> t | None -> start seat.host
              in
              seat.worker <- Some t;
              t.cell <- c;
              t.shards <- ids;
              t.header_ok <- false;
              (* Idle seats: the deadline clock starts at the dispatch,
                 so time spent idle is never held against a worker. *)
              t.last_progress <- now;
              let job =
                {
                  Worker.cell =
                    Worker.cell_of_spec
                      ~program:rt.cell.Faultspace.golden.Golden.program rt.spec;
                  stride =
                    rt.spec.Spec.policy.Spec.acceleration.Spec
                      .checkpoint_stride;
                  fingerprint = rt.fp;
                  shard_ids = Array.of_list ids;
                  index = t.index;
                }
              in
              (* A worker already dead surfaces as EOF, a supervision
                 event: SIGPIPE is ignored, so its broken pipe is EPIPE. *)
              Option.iter
                (fun conn ->
                  try
                    Transport.send conn Frame.Job
                      (Worker.encode Worker.job_codec job)
                  with
                  | Unix.Unix_error
                      ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
                  ->
                    ())
                t.conn
          | None, Some t when !queue = [] ->
              t.closing <- true;
              t.last_progress <- now;
              Option.iter
                (fun conn ->
                  try Unix.shutdown (Transport.fd conn) Unix.SHUTDOWN_SEND
                  with Unix.Unix_error _ -> ())
                t.conn
          | None, _ -> ())
      seats
  in
  let settle_ended () =
    Array.iter
      (fun seat ->
        match seat.worker with
        | Some t when t.eof ->
            settle ~on_event ~emit cells queue failures seat t
        | Some _ | None -> ())
      seats
  in
  (* Idle seats: only a worker with a shard in flight, or closing, is
     held to the shard deadline. *)
  let deadline t =
    if t.shards = [] && not t.closing then None
    else shard_deadline ~t0 ~capacity rts cells.(t.cell).spec.Spec.policy
  in
  let rec loop () =
    dispatch ();
    (* Failed dials are born ended: push them through supervision now
       so their shards requeue (with retries and backoff) even when
       nothing else is alive. *)
    settle_ended ();
    let alive = live () in
    let seated = Array.exists (fun s -> not s.retired) seats in
    if alive <> [] || (!queue <> [] && seated) then begin
      let now = Unix.gettimeofday () in
      (* Wake for the nearest deadline, or the earliest backed-off shard
         an idle seat could take. *)
      let timeout =
        List.fold_left
          (fun acc t ->
            match deadline t with
            | None -> acc
            | Some dl -> Float.min acc (dl -. (now -. t.last_progress)))
          (if Array.exists idle seats then
             List.fold_left
               (fun acc (_, _, nb) ->
                 if nb > now then Float.min acc (nb -. now) else acc)
               0.5 !queue
           else 0.5)
          alive
      in
      let fds =
        List.filter_map (fun t -> Option.map Transport.fd t.conn) alive
      in
      let readable = Sysio.select_read fds (Float.max 0.01 timeout) in
      List.iter
        (fun t ->
          match t.conn with
          | Some conn when List.mem (Transport.fd conn) readable -> (
              match Transport.pump conn with
              | `Frames frames ->
                  List.iter (handle_frame ~emit cells.(t.cell) t) frames;
                  (* A worker whose stream failed a check is trusted with
                     nothing more; left alive, it would idle forever. *)
                  if t.corrupt <> None then end_stream ~kill:true t
              | `Eof -> end_stream t
              | `Corrupt msg ->
                  if t.wire_err = None then
                    t.wire_err <-
                      Some (Printf.sprintf "sent a corrupt frame (%s)" msg);
                  end_stream ~kill:true t)
          | Some _ | None -> ())
        alive;
      (* Deadline pass: kill what stopped progressing. *)
      let now = Unix.gettimeofday () in
      List.iter
        (fun t ->
          match deadline t with
          | Some dl when (not t.eof) && now -. t.last_progress > dl ->
              let reason =
                if now -. t.last_beat > dl then
                  Printf.sprintf "hung (no heartbeat for %.1fs, deadline %.1fs)"
                    (now -. t.last_beat) dl
                else
                  Printf.sprintf
                    "stalled (heartbeats flowing but no shard completed for \
                     %.1fs, deadline %.1fs)"
                    (now -. t.last_progress) dl
              in
              t.killed <- Some reason;
              counters.kills <- counters.kills + 1;
              end_stream ~kill:true t;
              on_event
                (Printf.sprintf "%s: %s %s — %s"
                   (Spec.label cells.(t.cell).spec)
                   (who t) reason
                   (match t.stop with
                   | Sigkill _ -> "SIGKILLed"
                   | Teardown _ -> "connection torn down"));
              emit ()
          | Some _ | None -> ())
        alive;
      settle_ended ();
      loop ()
    end
  in
  (* Nothing left running: the loop returns once every worker is reaped
     and closed, and an exception out of it (a raising [observe] hook, a
     failed journal append) kills and reaps the live ones first. *)
  Fun.protect
    ~finally:(fun () -> List.iter (end_stream ~kill:true) (live ()))
    loop;
  List.rev !failures

(* The sockets backend's hosts.  Every host is probed (connect + hello)
   before anything is conducted: unreachable hosts, protocol mismatches
   and foreign binaries fail fast, before a single shard is
   dispatched. *)
let probe_hosts ?secret ~jobs addrs =
  List.map
    (fun addr ->
      match Remote.probe ?secret addr with
      | Ok h ->
          (* -j bounds per-host concurrency; 0 defers to the capacity
             the daemon advertised in its hello. *)
          (Remote addr, if jobs = 0 then max 1 h.Handshake.capacity else jobs)
      | Error msg ->
          raise
            (Worker_failed
               (Printf.sprintf "worker host %s: %s" (Addr.to_string addr) msg)))
    addrs

(* Both worker backends run under SIGPIPE-ignore: a worker (or daemon)
   that dies mid-write must surface as a supervision event, never as a
   parent crash.  [hosts] runs inside the protected region because the
   sockets backend probes its hosts there. *)
let conduct_workers ?secret ~on_event ~emit ~t0 ~counters ~hosts rts =
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let failures =
    Fun.protect
      ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev)
      (fun () ->
        let seat host = { host; worker = None; retired = false } in
        supervise ?secret ~on_event ~emit ~t0 ~counters
          (Array.of_list
             (List.concat_map (fun (h, n) -> List.init n (fun _ -> seat h))
                (hosts ())))
          rts)
  in
  match failures with
  | [] -> ()
  | fs -> raise (Worker_failed (String.concat "\n" fs))

(* ------------------------------------------------------------------ *)
(* The matrix scheduler: set up, conduct, finish                      *)
(* ------------------------------------------------------------------ *)

let run_matrix_results ?(backend = Pool.Domains) ?jobs ?observe
    ?(on_event = fun _ -> ()) ?secret specs =
  let jobs = Pool.resolve_jobs ~backend ?jobs () in
  let hosts =
    match backend with
    | Pool.Sockets [] ->
        invalid_arg
          "Engine.run_matrix_results: the sockets backend needs at least \
           one HOST:PORT worker address (--workers)"
    | Pool.Sockets hosts -> List.map Addr.parse_exn hosts
    | Pool.Domains | Pool.Processes -> []
  in
  List.iter
    (fun (s : Spec.t) ->
      let d = s.Spec.policy.Spec.durability in
      if d.Spec.resume && d.Spec.journal = None && d.Spec.catalogue = None then
        invalid_arg "Engine.run_matrix_results: ~resume requires ~journal")
    specs;
  let cells = List.map (fun spec -> (spec, Runcell.analyse spec)) specs in
  let opened = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun rt -> Option.iter Journal.close rt.writer) !opened)
    (fun () ->
      List.iter
        (fun (spec, cell) -> opened := setup spec cell :: !opened)
        cells;
      let rts = List.rev !opened in
      let t0 = Unix.gettimeofday () in
      let counters = { starts = 0; kills = 0 } in
      let emit =
        match observe with
        | None -> ignore
        | Some hook -> fun () -> hook (snapshot ~t0 ~counters rts)
      in
      emit ();
      (match backend with
      | Pool.Domains -> conduct_domains ~jobs ~on_event ~emit rts
      | Pool.Processes ->
          conduct_workers ?secret ~on_event ~emit ~t0 ~counters
            ~hosts:(fun () -> [ (Local, jobs) ])
            rts
      | Pool.Sockets _ ->
          conduct_workers ?secret ~on_event ~emit ~t0 ~counters
            ~hosts:(fun () -> probe_hosts ?secret ~jobs hosts)
            rts);
      List.map finish rts)

let scan_exn (r : result) =
  match r.quarantined with
  | [] -> r.scan
  | qs ->
      raise
        (Worker_failed
           (String.concat "\n"
              (List.map
                 (fun q ->
                   Printf.sprintf
                     "%s: shard %d (%d classes) quarantined after %d attempts \
                      (%s)"
                     q.q_cell q.q_shard q.q_classes q.q_attempts q.q_cause)
                 qs)))

(* ------------------------------------------------------------------ *)
(* Compaction: a sweep of the artifact store                          *)
(* ------------------------------------------------------------------ *)

type compaction = { examined : int; deleted : int; kept : int }

(* Only the store's own journals ([Cache.journal_path] names): a journal
   given an explicit path belongs to whoever named it. *)
let compact ?(dry_run = false) ~dir () =
  let journals =
    match Sys.readdir dir with
    | names ->
        List.filter
          (fun name ->
            String.starts_with ~prefix:"fi-" name
            && Filename.check_suffix name ".journal")
          (Array.to_list names)
    | exception Sys_error _ -> []
  in
  let referenced = Cache.referenced ~dir in
  let deleted =
    List.filter
      (fun name ->
        let path = Filename.concat dir name in
        Runcell.journal_finished path && not (referenced path))
      journals
  in
  if not dry_run then
    List.iter
      (fun name ->
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      deleted;
  let examined = List.length journals and deleted = List.length deleted in
  { examined; deleted; kept = examined - deleted }
