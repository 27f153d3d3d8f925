exception Journal_mismatch = Runcell.Journal_mismatch

exception Worker_failed of string

let mismatch = Runcell.mismatch

(* ------------------------------------------------------------------ *)
(* Campaign identity (public API; the definitions live in Runcell)     *)
(* ------------------------------------------------------------------ *)

let fingerprint_spec spec =
  let cell = Runcell.analyse spec in
  let plan =
    Runcell.plan_of_policy spec.Spec.policy cell.Runcell.classes
  in
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
(* Journal resolution (explicit path or catalogue)                    *)
(* ------------------------------------------------------------------ *)

let resolve_journal ~fingerprint (policy : Spec.policy) =
  match policy.Spec.durability.Spec.journal with
  | Some path -> Some path
  | None -> (
      match policy.Spec.durability.Spec.catalogue with
      | None -> None
      | Some dir ->
          Catalog.ensure_dir dir;
          if policy.Spec.durability.Spec.resume then
            Some
              (match Catalog.lookup ~dir ~fingerprint with
              | Some path -> path
              | None -> Catalog.journal_path ~dir ~fingerprint)
          else Some (Catalog.journal_path ~dir ~fingerprint))

(* ------------------------------------------------------------------ *)
(* Shard records: the one parse and the one apply                     *)
(* ------------------------------------------------------------------ *)

(* A well-formed record for one of [plan]'s shards whose outcome
   characters all decode — from a journal, a cache entry or a worker's
   [Seg] frame alike. *)
let parse_record plan payload =
  match Runcell.parse_record plan payload with
  | Some (_, outs) as r
    when String.for_all (fun c -> Outcome.of_char c <> None) outs ->
      r
  | Some _ | None -> None

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
          match parse_record plan payload with
          | Some ((shard : Shard.t), _) when seen.(shard.Shard.id) ->
              mismatch "journal has duplicate record for shard %d"
                shard.Shard.id
          | Some ((shard : Shard.t), outs) ->
              seen.(shard.Shard.id) <- true;
              Either.Left (shard, outs)
          | None -> mismatch "journal has malformed record %S" payload))
    payloads

(* Decode a parsed record into the cell's per-slot outcomes, adding each
   outcome to every tally in [tallies]; [on_class] runs after each
   class. *)
let apply_record ~(plan : Shard.plan) ~outcomes ~tallies ?(on_class = ignore)
    (shard : Shard.t) outs =
  for k = 0 to Shard.classes_in shard - 1 do
    let class_index = plan.Shard.order.(shard.Shard.lo + k) in
    for bit = 0 to 7 do
      let o = Option.get (Outcome.of_char outs.[(8 * k) + bit]) in
      outcomes.((class_index * 8) + bit) <- o;
      List.iter (fun t -> Outcome.tally_add t o) tallies
    done;
    on_class ()
  done

(* ------------------------------------------------------------------ *)
(* Per-cell runtime state                                             *)
(* ------------------------------------------------------------------ *)

type runtime = {
  cell : Runcell.cell;
  classes : Defuse.byte_class array;
  plan : Shard.plan;
  fp : int;
  outcomes : Outcome.t array;
  shard_done : bool array;
  retries : int array;  (** Retry attempts burned, per shard. *)
  quarantined : bool array;
  mutable q_info : (int * int * string) list;  (** Newest first. *)
  tally : Outcome.tally;
  progress : Scan.progress;
  journal_path : string option;
  mutable writer : Journal.writer option;
  resumed_classes : int;
  resumed_shards : int;
  mutable classes_done : int;
  mutable shards_done : int;
  cache_key : string option;  (** {!Cache.cell_key}, when caching is on. *)
  from_cache : bool;  (** Whole cell replayed from the result store. *)
}

let setup cell ~progress =
  let classes = cell.Runcell.classes in
  let policy = cell.Runcell.spec.Spec.policy in
  let plan = Runcell.plan_of_policy policy classes in
  let fp = Runcell.fingerprint_cell cell ~plan in
  let header = Runcell.header_payload cell ~plan ~fp in
  let total = plan.Shard.classes_total in
  let outcomes = Array.make (8 * total) Outcome.No_effect in
  let shard_done = Array.make (Array.length plan.Shard.shards) false in
  let retries = Array.make (Array.length plan.Shard.shards) 0 in
  let tally = Outcome.tally_create () in
  let apply records =
    List.iter
      (fun ((shard : Shard.t), outs) ->
        apply_record ~plan ~outcomes ~tallies:[ tally ] shard outs;
        shard_done.(shard.Shard.id) <- true)
      records
  in
  (* --------------------------------------------------------------- *)
  (* Result-store consult.  The cell key fingerprints everything that
     determines results (program image × fault space × plan-shaping
     policy); a published journal under that key replays through the
     same parse/apply path a --resume uses, so a hit is bit-identical
     to a fresh run and costs zero shard executions.  Anything short
     of a complete, header-matching, every-shard-covered journal is
     treated as a miss — in particular a quarantine-degraded journal,
     which lacks records for its quarantined shards.  The journal is
     parsed in full before any state is touched, so a miss falls
     through to conducting normally. *)
  (* --------------------------------------------------------------- *)
  let cache_key =
    match policy.Spec.acceleration.Spec.cache with
    | None -> None
    | Some _ ->
        let image =
          Digest.to_hex
            (Digest.string
               (Marshal.to_string cell.Runcell.golden.Golden.program []))
        in
        Some
          (Cache.cell_key ~image
             ~space:(Faultspace.tag cell.Runcell.spec.Spec.model)
             ~limit:cell.Runcell.spec.Spec.limit
             ~shard_size:policy.Spec.sharding.Spec.shard_size ~weighted:policy.Spec.sharding.Spec.weighted)
  in
  let from_cache =
    match (policy.Spec.acceleration.Spec.cache, cache_key) with
    | Some dir, Some key -> (
        match Cache.lookup ~dir key with
        | Some e when e.Cache.fingerprint = fp -> (
            match Journal.replay e.Cache.path with
            | Some (hdr, payloads, Journal.Clean) when hdr = header -> (
                match parse_journal plan payloads with
                | records, _
                  when List.length records = Array.length plan.Shard.shards ->
                    apply records;
                    true
                | _ -> false
                | exception Journal_mismatch _ -> false)
            | Some _ | None | (exception Sys_error _) -> false)
        | Some _ | None -> false)
    | _ -> false
  in
  let journal_path =
    if from_cache then None else resolve_journal ~fingerprint:fp policy
  in
  let writer =
    match journal_path with
    | None -> None
    | Some path ->
        let fresh () = Some (Journal.create path ~header) in
        if not policy.Spec.durability.Spec.resume then fresh ()
        else (
          match Journal.replay path with
          | Some (_, _, Journal.Corrupt_record { line }) ->
              mismatch
                "journal %s: CRC-invalid record at line %d — refusing to \
                 resume a corrupt journal (a crash leaves a torn tail, not \
                 mid-file corruption); delete it to re-run from scratch"
                path line
          | Some _ | None -> (
              match Journal.open_resume path with
              | None -> fresh ()
              | Some (w, hdr, payloads) ->
                  if hdr <> header then begin
                    Journal.close w;
                    mismatch
                      "journal %s belongs to a different campaign\n\
                      \  journal: %s\n\
                      \  current: %s"
                      path hdr header
                  end;
                  let records, sups = parse_journal plan payloads in
                  List.iter
                    (function
                      | Runcell.Retry { shard; attempt; _ } ->
                          (* Resume composes with retry accounting: the
                             budget a shard burned before the crash stays
                             burned. *)
                          if shard >= 0 && shard < Array.length retries then
                            retries.(shard) <- max retries.(shard) attempt
                      | Runcell.Quarantine _ ->
                          (* Informational: a resumed campaign gives the
                             shard a fresh dispatch (its burned retries
                             above still count). *)
                          ())
                    sups;
                  apply records;
                  Some w))
  in
  let resumed_classes =
    Array.fold_left
      (fun acc (s : Shard.t) ->
        if shard_done.(s.Shard.id) then acc + Shard.classes_in s else acc)
      0 plan.Shard.shards
  in
  let resumed_shards =
    Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 shard_done
  in
  {
    cell;
    classes;
    plan;
    fp;
    outcomes;
    shard_done;
    retries;
    quarantined = Array.make (Array.length plan.Shard.shards) false;
    q_info = [];
    tally;
    progress;
    journal_path;
    writer;
    resumed_classes;
    resumed_shards;
    classes_done = resumed_classes;
    shards_done = resumed_shards;
    cache_key;
    from_cache;
  }

(* ------------------------------------------------------------------ *)
(* Worker-backend supervision state (Processes and Sockets)           *)
(* ------------------------------------------------------------------ *)

(* How a cell's shards reach their workers: the fork/exec backend with
   a total seat count, or the sockets backend with one seat cap per
   probed daemon host. *)
type cell_mode =
  | Local_processes of int
  | Remote_hosts of (Addr.t * int) array

(* How the supervisor stops one spawned worker.  Every live worker is a
   {!Transport.conn} speaking the {!Worker} frame protocol; only the
   stop differs.  A local child is SIGKILLed and reaped, which leaves
   its exit status to explain it; a remote daemon's worker is stopped
   by tearing its connection down, and its address holds one of that
   host's seats while it lives.  [Stillborn] is a dispatch that never
   produced a worker (connect or handshake failure): it settles through
   the ordinary supervision path, so refusals and dead hosts earn
   retries, backoff and quarantine exactly like any other worker
   death. *)
type stop = Sigkill of int | Teardown of Addr.t | Stillborn of string

(* One record per spawned worker: its frame stream, heartbeat clocks,
   and what became of it. *)
type tracked = {
  conn : Transport.conn option;  (** [None] only when stillborn. *)
  stop : stop;
  index : int;
  assigned : int array;
  t_rt : runtime;
  mutable last_beat : float;  (** Last doorbell activity seen. *)
  mutable last_progress : float;  (** Last [s]/[end] doorbell line. *)
  mutable header_ok : bool;
  mutable corrupt : string option;
  mutable killed : string option;  (** Supervisor teardown reason. *)
  mutable wire_err : string option;
      (** [Err] frame, frame corruption or failed dispatch. *)
  mutable eof : bool;
  mutable status : Unix.process_status option;  (** A local child's. *)
  mutable settled : bool;
}

let who t =
  match t.stop with
  | Sigkill pid -> Printf.sprintf "worker %d (pid %d)" t.index pid
  | Teardown addr ->
      Printf.sprintf "remote worker %d (%s)" t.index (Addr.to_string addr)
  | Stillborn peer -> Printf.sprintf "remote worker %d (%s)" t.index peer

(* End a worker's stream: close the connection and reap a local child,
   SIGKILLing it first when it may still be running. *)
let end_stream ?(kill = false) t =
  t.eof <- true;
  match t.stop with
  | Sigkill pid ->
      if kill then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      Option.iter Transport.close t.conn;
      t.status <- Some (snd (Unix.waitpid [] pid))
  | Teardown _ | Stillborn _ -> Option.iter Transport.close t.conn

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

(* When supervision is on but no [--shard-timeout] was given and no
   shard has completed yet, this ceiling bounds the wait for the very
   first completion (otherwise a campaign whose every worker hangs at
   shard 0 would give the derived deadline nothing to derive from). *)
let bootstrap_deadline = 60.

(* ------------------------------------------------------------------ *)
(* The matrix scheduler                                               *)
(* ------------------------------------------------------------------ *)

let run_matrix_results ?(backend = Pool.Domains) ?jobs ?progress
    ?(observe = fun _ -> ()) ?(on_event = fun _ -> ()) ?secret specs =
  let jobs = Pool.resolve_jobs ~backend ?jobs () in
  let worker_hosts =
    match backend with
    | Pool.Sockets [] ->
        invalid_arg
          "Engine.run_matrix_results: the sockets backend needs at least \
           one HOST:PORT worker address (--workers)"
    | Pool.Sockets hosts -> List.map Addr.parse_exn hosts
    | Pool.Domains | Pool.Processes -> []
  in
  let progress_of =
    match progress with None -> fun _ -> Scan.no_progress | Some p -> p
  in
  List.iter
    (fun (s : Spec.t) ->
      let p = s.Spec.policy in
      if p.Spec.durability.Spec.resume && p.Spec.durability.Spec.journal = None && p.Spec.durability.Spec.catalogue = None then
        invalid_arg "Engine.run_matrix_results: ~resume requires ~journal")
    specs;
  let cells = List.map Runcell.analyse specs in
  let rts = ref [] in
  let finally () =
    List.iter
      (fun rt ->
        Option.iter Journal.close rt.writer;
        match
          (rt.journal_path, rt.cell.Runcell.spec.Spec.policy.Spec.durability.Spec.catalogue)
        with
        | Some path, Some dir -> (
            try Catalog.record ~dir ~fingerprint:rt.fp ~path
            with Sys_error _ -> ())
        | _ -> ())
      !rts
  in
  Fun.protect ~finally (fun () ->
      List.iter
        (fun cell ->
          rts :=
            setup cell ~progress:(progress_of cell.Runcell.spec) :: !rts)
        cells;
      let rts_in_order = List.rev !rts in
      (* Aggregate counters across the whole matrix. *)
      let agg_classes_total =
        List.fold_left (fun a rt -> a + rt.plan.Shard.classes_total) 0
          rts_in_order
      in
      let agg_shards_total =
        List.fold_left
          (fun a rt -> a + Array.length rt.plan.Shard.shards)
          0 rts_in_order
      in
      let agg_resumed =
        List.fold_left (fun a rt -> a + rt.resumed_classes) 0 rts_in_order
      in
      let agg_tally = Outcome.tally_create () in
      List.iter
        (fun rt -> Outcome.tally_merge ~into:agg_tally rt.tally)
        rts_in_order;
      let agg_classes_done = ref agg_resumed in
      let agg_resumed_shards =
        List.fold_left (fun a rt -> a + rt.resumed_shards) 0 rts_in_order
      in
      let agg_shards_done = ref agg_resumed_shards in
      let agg_retries = ref 0 in
      let agg_kills = ref 0 in
      let agg_q_shards = ref 0 in
      let agg_q_classes = ref 0 in
      let t0 = Unix.gettimeofday () in
      let mu = Mutex.create () in
      let emit_observe () =
        observe
          (Progress.make ~classes_done:!agg_classes_done
             ~classes_total:agg_classes_total ~shards_done:!agg_shards_done
             ~shards_total:agg_shards_total ~resumed_classes:agg_resumed
             ~retries:!agg_retries ~kills:!agg_kills
             ~quarantined_shards:!agg_q_shards
             ~quarantined_classes:!agg_q_classes
             ~elapsed:(Unix.gettimeofday () -. t0)
             ~tally:agg_tally ())
      in
      List.iter
        (fun rt ->
          if rt.resumed_classes > 0 then
            rt.progress ~done_:rt.resumed_classes
              ~total:rt.plan.Shard.classes_total ~tally:rt.tally)
        rts_in_order;
      emit_observe ();

      (* The one completion path of every backend: apply a conducted
         shard's record, journal it, and report progress. *)
      let complete_shard rt (shard : Shard.t) outs =
        apply_record ~plan:rt.plan ~outcomes:rt.outcomes
          ~tallies:[ rt.tally; agg_tally ]
          ~on_class:(fun () ->
            rt.classes_done <- rt.classes_done + 1;
            incr agg_classes_done;
            rt.progress ~done_:rt.classes_done
              ~total:rt.plan.Shard.classes_total ~tally:rt.tally)
          shard outs;
        Option.iter
          (fun w ->
            Journal.append w
              (Runcell.record_payload shard (Bytes.of_string outs)))
          rt.writer;
        rt.shard_done.(shard.Shard.id) <- true;
        rt.shards_done <- rt.shards_done + 1;
        incr agg_shards_done;
        emit_observe ()
      in

      (* -------------------------------------------------------------- *)
      (* Domains backend: one shared pool over every pending shard of
         every cell; tasks are claimed in cell order, so workers drain
         cell 1 first but spill into cell 2 as soon as slots free up —
         no back-to-back barrier between cells.  Supervision here is
         report-only: domains share the heap and cannot be SIGKILLed,
         so a blown deadline fires [on_event] and the pool still joins
         every domain. *)
      (* -------------------------------------------------------------- *)
      let conduct_domains () =
        let pending =
          Array.of_list
            (List.concat_map
               (fun rt ->
                 List.filter_map
                   (fun (s : Shard.t) ->
                     if rt.shard_done.(s.Shard.id) then None else Some (rt, s))
                   (Array.to_list rt.plan.Shard.shards))
               rts_in_order)
        in
        let conduct_shard (rt, (shard : Shard.t)) =
          let buf =
            Runcell.conduct_shard rt.cell ~classes:rt.classes ~plan:rt.plan
              shard
          in
          Mutex.protect mu (fun () ->
              complete_shard rt shard (Bytes.to_string buf))
        in
        let deadline =
          List.fold_left
            (fun acc (s : Spec.t) ->
              match (s.Spec.policy.Spec.supervision.Spec.shard_timeout, acc) with
              | None, acc -> acc
              | Some t, None -> Some t
              | Some t, Some a -> Some (Float.min t a))
            None specs
        in
        let on_stall ~stalled_for =
          on_event
            (Printf.sprintf
               "domain pool stalled: no shard completed for %.1fs (hung \
                domain?) — still waiting, domains cannot be killed"
               stalled_for)
        in
        Pool.run ?deadline ~on_stall ~jobs ~tasks:(Array.length pending)
          (fun i -> conduct_shard pending.(i))
      in

      (* -------------------------------------------------------------- *)
      (* Worker backends (Processes and Sockets): every worker, local or
         remote, is a connection carrying [Seg]/[Door] frames, merged
         into the campaign journal as they arrive.  Cells run one after
         another (each gets the full worker count).  With supervision
         off (the library default policy), a dead or corrupt worker is
         recorded and reported after every cell has been driven as far
         as it will go.  With supervision on, a dead/hung/stalled
         worker's unfinished shards are re-dispatched (bounded, with
         backoff), and a shard that exhausts its budget is quarantined
         or failed per policy. *)
      (* -------------------------------------------------------------- *)
      (* The one merge path: [Seg] lines are CRC-guarded journal lines
         (header first, then one record per shard), so the dedup /
         fingerprint / corruption verdicts are the same for every
         worker. *)
      let merge_line t line =
        if t.corrupt = None then
          match Journal.decode_line line with
          | None -> t.corrupt <- Some "sent a CRC-invalid record line"
          | Some payload ->
              if not t.header_ok then (
                match Worker.segment_fingerprint payload with
                | Some fp when fp = t.t_rt.fp -> t.header_ok <- true
                | Some _ ->
                    t.corrupt <-
                      Some "sent a header for a different campaign"
                | None -> t.corrupt <- Some "sent a malformed header line")
              else
                match parse_record t.t_rt.plan payload with
                | None -> t.corrupt <- Some "sent a malformed shard record"
                | Some (shard, outs) ->
                    if not t.t_rt.shard_done.(shard.Shard.id) then
                      complete_shard t.t_rt shard outs
      in
      let handle_frame t (kind, payload) =
        match kind with
        | Frame.Door -> note_door_line t payload (Unix.gettimeofday ())
        | Frame.Seg -> merge_line t payload
        | Frame.Err ->
            if t.wire_err = None then
              t.wire_err <- Some (Printf.sprintf "reported: %s" payload)
        | Frame.Hello | Frame.Job | Frame.Submit | Frame.Stat | Frame.Prog
        | Frame.Res ->
            if t.wire_err = None then
              t.wire_err <-
                Some
                  (Printf.sprintf "sent an unexpected %s frame"
                     (Frame.kind_tag kind))
      in
      let run_cell mode rt failures =
        let policy = rt.cell.Runcell.spec.Spec.policy in
        let sup = Spec.supervised policy in
        let max_retries = policy.Spec.supervision.Spec.max_retries in
        let label = Spec.label rt.cell.Runcell.spec in
        let capacity =
          match mode with
          | Local_processes jobs -> jobs
          | Remote_hosts seats ->
              Array.fold_left (fun acc (_, cap) -> acc + cap) 0 seats
        in
        let pending_ids =
          Array.of_list
            (List.filter_map
               (fun (s : Shard.t) ->
                 if rt.shard_done.(s.Shard.id) then None else Some s.Shard.id)
               (Array.to_list rt.plan.Shard.shards))
        in
        let n = Array.length pending_ids in
        if n > 0 then begin
          let spawn_counter = ref 0 in
          let tracked = ref [] in
          (* Hosts whose last dispatch failed: re-dials get a short
             patience so a dead host stalls the (blocking, serial)
             dispatch path for a couple of seconds, not the full
             connect+handshake timeouts on every backoff round. *)
          let suspect_hosts : (Addr.t, unit) Hashtbl.t = Hashtbl.create 4 in
          let redial_patience = 2.0 in
          (* (shard id, earliest dispatch time); dispatch sorts by id. *)
          let queue = ref (List.map (fun id -> (id, 0.)) (Array.to_list pending_ids)) in
          let live () = List.filter (fun t -> not t.eof) !tracked in
          (* Per-host seat accounting for the sockets backend: a host's
             live connections occupy its seats; stillborn dispatches
             never do. *)
          let host_live addr =
            List.fold_left
              (fun acc t ->
                match t.stop with
                | Teardown a when (not t.eof) && a = addr -> acc + 1
                | _ -> acc)
              0 !tracked
          in
          let free_seats () =
            match mode with
            | Local_processes jobs -> jobs - List.length (live ())
            | Remote_hosts seats ->
                Array.fold_left
                  (fun acc (addr, cap) -> acc + max 0 (cap - host_live addr))
                  0 seats
          in
          let pick_host seats =
            Array.fold_left
              (fun acc (addr, cap) ->
                let free = cap - host_live addr in
                match acc with
                | Some (_, best) when best >= free -> acc
                | _ -> if free > 0 then Some (addr, free) else acc)
              None seats
          in
          let spawn_one shard_ids =
            let index = !spawn_counter in
            incr spawn_counter;
            let now = Unix.gettimeofday () in
            let track ?err conn stop =
              tracked :=
                {
                  conn;
                  stop;
                  index;
                  assigned = shard_ids;
                  t_rt = rt;
                  last_beat = now;
                  last_progress = now;
                  header_ok = false;
                  corrupt = None;
                  killed = None;
                  wire_err = err;
                  eof = Option.is_none conn;
                  status = None;
                  settled = false;
                }
                :: !tracked
            in
            let job =
              Worker.wire_of_spec rt.cell.Runcell.spec
                ~program:rt.cell.Runcell.golden.Golden.program
                ~fingerprint:rt.fp ~shard_ids ~index
            in
            match mode with
            | Local_processes _ ->
                let pid, conn = Worker.spawn job in
                track (Some conn) (Sigkill pid)
            | Remote_hosts seats -> (
                match pick_host seats with
                | None -> track ~err:"had no free worker seat" None (Stillborn "no host")
                | Some (addr, _) -> (
                    let patience =
                      if Hashtbl.mem suspect_hosts addr then
                        Some redial_patience
                      else None
                    in
                    match Remote.dispatch ?patience ?secret ~addr job with
                    | Ok conn ->
                        Hashtbl.remove suspect_hosts addr;
                        track (Some conn) (Teardown addr)
                    | Error msg ->
                        Hashtbl.replace suspect_hosts addr ();
                        track ~err:msg None (Stillborn (Addr.to_string addr))))
          in
          let spawn_workers ids k =
            let n = Array.length ids in
            let k = min k n in
            for i = 0 to k - 1 do
              let lo = i * n / k and hi = (i + 1) * n / k in
              spawn_one (Array.sub ids lo (hi - lo))
            done
          in
          let dispatch () =
            let free = free_seats () in
            if free > 0 && !queue <> [] then begin
              let now = Unix.gettimeofday () in
              let eligible, later =
                List.partition (fun (_, nb) -> nb <= now) !queue
              in
              if eligible <> [] then begin
                queue := later;
                let ids = Array.of_list (List.map fst eligible) in
                Array.sort compare ids;
                spawn_workers ids free
              end
            end
          in
          (* The shard deadline: explicit policy, else derived from the
             observed shard rate (8× the mean per-worker shard time seen
             so far across the matrix), else the bootstrap ceiling. *)
          let current_deadline () =
            if not sup then None
            else
              match policy.Spec.supervision.Spec.shard_timeout with
              | Some t -> Some t
              | None ->
                  let completions = !agg_shards_done - agg_resumed_shards in
                  if completions > 0 then
                    Some
                      (Float.max 1.0
                         (8. *. float_of_int capacity
                         *. (Unix.gettimeofday () -. t0)
                         /. float_of_int completions))
                  else Some bootstrap_deadline
          in
          let requeue ids nb =
            queue := !queue @ List.map (fun id -> (id, nb)) ids
          in
          let settle t =
            t.settled <- true;
            let unfinished =
              List.filter
                (fun id -> not (rt.shard_done.(id) || rt.quarantined.(id)))
                (Array.to_list t.assigned)
            in
            let clean =
              t.killed = None && t.corrupt = None && t.wire_err = None
              && unfinished = []
              && (match t.status with
                 | None | Some (Unix.WEXITED 0) -> true
                 | Some _ -> false)
            in
            if not clean then begin
              let cause = status_cause t in
              let who = who t in
              if not sup then
                failures :=
                  Printf.sprintf "%s: %s %s%s" label who cause
                    (match unfinished with
                    | [] -> ""
                    | ids ->
                        Printf.sprintf
                          "; shard%s %s unfinished — run again with --resume \
                           to replay"
                          (if List.length ids > 1 then "s" else "")
                          (String.concat "," (List.map string_of_int ids)))
                  :: !failures
              else
                match unfinished with
                | [] ->
                    (* Died after finishing everything it was assigned:
                       nothing to recover. *)
                    on_event
                      (Printf.sprintf
                         "%s: %s %s (all assigned shards complete; nothing to \
                          retry)"
                         label who cause)
                | first :: rest ->
                    (* Charge a retry attempt only when the worker made
                       NO progress: then [first] — the shard being
                       conducted at death — is the prime suspect.  A
                       worker that completed shards before dying is
                       evidence of a transient or positional fault, not
                       of [first] being poisonous, and charging it would
                       let sustained churn quarantine healthy shards
                       (every death would bill whichever shard happened
                       to be next in line).  Termination is preserved:
                       an uncharged requeue always comes with at least
                       one newly completed shard, so there can be at
                       most [shards_total] of them — and a genuinely
                       poisoned shard still converges to quarantine,
                       because once its neighbours drain it is
                       dispatched at the head of a queue and every
                       death then charges it. *)
                    let progressed =
                      List.length unfinished < Array.length t.assigned
                    in
                    if not progressed then
                      rt.retries.(first) <- rt.retries.(first) + 1;
                    let attempt = rt.retries.(first) in
                    if (not progressed) && attempt > max_retries then
                      if policy.Spec.supervision.Spec.quarantine then begin
                        rt.quarantined.(first) <- true;
                        rt.q_info <- (first, attempt, cause) :: rt.q_info;
                        incr agg_q_shards;
                        agg_q_classes :=
                          !agg_q_classes
                          + Shard.classes_in rt.plan.Shard.shards.(first);
                        (match rt.writer with
                        | Some w ->
                            Journal.append w
                              (Runcell.supervision_payload
                                 (Runcell.Quarantine
                                    { shard = first; attempts = attempt; cause }))
                        | None -> ());
                        on_event
                          (Printf.sprintf
                             "%s: shard %d quarantined after %d failed \
                              attempt%s (last: %s %s)"
                             label first attempt
                             (if attempt > 1 then "s" else "")
                             who cause);
                        if rest <> [] then requeue rest (Unix.gettimeofday ());
                        emit_observe ()
                      end
                      else begin
                        failures :=
                          Printf.sprintf
                            "%s: shard %d failed %d time%s (last: %s %s); \
                             retry budget exhausted — run again with --resume \
                             to replay"
                            label first attempt
                            (if attempt > 1 then "s" else "")
                            who cause
                          :: !failures;
                        (* Still drive the untouched shards to completion:
                           maximal journal progress for --resume. *)
                        if rest <> [] then requeue rest (Unix.gettimeofday ())
                      end
                    else begin
                      (* Journal the budget change only when there is
                         one: uncharged requeues leave nothing for
                         --resume to restore. *)
                      if not progressed then
                        (match rt.writer with
                        | Some w ->
                            Journal.append w
                              (Runcell.supervision_payload
                                 (Runcell.Retry
                                    { shard = first; attempt; cause }))
                        | None -> ());
                      incr agg_retries;
                      let delay =
                        policy.Spec.supervision.Spec.retry_backoff
                        *. (2. ** float_of_int (max 0 (attempt - 1)))
                      in
                      requeue unfinished (Unix.gettimeofday () +. delay);
                      on_event
                        (Printf.sprintf
                           "%s: %s %s; retrying shard%s %s (%s, backoff %.2fs)"
                           label who cause
                           (if List.length unfinished > 1 then "s" else "")
                           (String.concat ","
                              (List.map string_of_int unfinished))
                           (if progressed then
                              "no charge — worker had completed shards"
                            else
                              Printf.sprintf "attempt %d/%d for shard %d"
                                attempt max_retries first)
                           delay);
                      emit_observe ()
                    end
            end
          in
          let rec supervise () =
            dispatch ();
            (* Stillborn dispatches are born settled-pending: push them
               through supervision now so their shards requeue (with
               retries and backoff) even when nothing else is alive. *)
            List.iter
              (fun t -> if t.eof && not t.settled then settle t)
              !tracked;
            match (live (), !queue) with
            | [], [] -> ()
            | [], q ->
                (* Everything is backing off; sleep to the earliest
                   dispatch time. *)
                let now = Unix.gettimeofday () in
                let earliest =
                  List.fold_left (fun a (_, nb) -> Float.min a nb) infinity q
                in
                if earliest > now then
                  Unix.sleepf (Float.min 0.5 (earliest -. now));
                supervise ()
            | alive, _ ->
                let now = Unix.gettimeofday () in
                let timeout =
                  let t_dl =
                    match current_deadline () with
                    | None -> 0.5
                    | Some dl ->
                        List.fold_left
                          (fun acc t ->
                            Float.min acc (dl -. (now -. t.last_progress)))
                          0.5 alive
                  in
                  let t_nb =
                    List.fold_left
                      (fun acc (_, nb) -> Float.min acc (nb -. now))
                      t_dl !queue
                  in
                  Float.max 0.01 (Float.min 0.5 t_nb)
                in
                let fds =
                  List.filter_map (fun t -> Option.map Transport.fd t.conn) alive
                in
                let readable = Sysio.select_read fds timeout in
                List.iter
                  (fun t ->
                    match t.conn with
                    | Some conn when List.mem (Transport.fd conn) readable -> (
                        match Transport.pump conn with
                        | `Frames frames -> List.iter (handle_frame t) frames
                        | `Eof -> end_stream t
                        | `Corrupt msg ->
                            if t.wire_err = None then
                              t.wire_err <-
                                Some
                                  (Printf.sprintf "sent a corrupt frame (%s)"
                                     msg);
                            end_stream ~kill:true t)
                    | Some _ | None -> ())
                  alive;
                List.iter
                  (fun t -> if t.eof && not t.settled then settle t)
                  !tracked;
                (* Deadline pass: kill what stopped progressing. *)
                (match current_deadline () with
                | None -> ()
                | Some dl ->
                    let now = Unix.gettimeofday () in
                    List.iter
                      (fun t ->
                        if (not t.eof) && t.killed = None then
                          let stuck = now -. t.last_progress in
                          if stuck > dl then begin
                            let reason =
                              if now -. t.last_beat > dl then
                                Printf.sprintf
                                  "hung (no heartbeat for %.1fs, deadline \
                                   %.1fs)"
                                  (now -. t.last_beat) dl
                              else
                                Printf.sprintf
                                  "stalled (heartbeats flowing but no shard \
                                   completed for %.1fs, deadline %.1fs)"
                                  stuck dl
                            in
                            t.killed <- Some reason;
                            incr agg_kills;
                            end_stream ~kill:true t;
                            on_event
                              (Printf.sprintf "%s: %s %s — %s" label (who t)
                                 reason
                                 (match t.stop with
                                 | Sigkill _ -> "SIGKILLed"
                                 | Teardown _ | Stillborn _ ->
                                     "connection torn down"));
                            emit_observe ()
                          end)
                      (live ()));
                supervise ()
          in
          supervise ();
          (* Belt and braces: every worker is dead and settled here. *)
          List.iter (fun t -> if not t.settled then settle t) !tracked
        end
      in
      (* Both worker backends run under SIGPIPE-ignore: a worker (or
         daemon) that dies mid-write must surface as a supervision
         event, never as a parent crash.  [make_mode] runs inside the
         protected region because the sockets backend probes its hosts
         (connect + hello) before conducting anything — unreachable
         hosts, protocol mismatches and foreign binaries fail fast,
         before a single shard is dispatched. *)
      let conduct_workers make_mode =
        let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
        let failures = ref [] in
        Fun.protect
          ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev)
          (fun () ->
            let mode = make_mode () in
            List.iter (fun rt -> run_cell mode rt failures) rts_in_order);
        match List.rev !failures with
        | [] -> ()
        | fs -> raise (Worker_failed (String.concat "\n" fs))
      in
      let probe_hosts () =
        Remote_hosts
          (Array.of_list
             (List.map
                (fun addr ->
                  match Remote.probe ?secret addr with
                  | Ok h ->
                      (* -j bounds per-host concurrency; 0 defers to the
                         capacity the daemon advertised in its hello. *)
                      let cap =
                        if jobs = 0 then max 1 h.Handshake.capacity else jobs
                      in
                      (addr, cap)
                  | Error msg ->
                      raise
                        (Worker_failed
                           (Printf.sprintf "worker host %s: %s"
                              (Addr.to_string addr) msg)))
                worker_hosts))
      in

      (match backend with
      | Pool.Domains -> conduct_domains ()
      | Pool.Processes -> conduct_workers (fun () -> Local_processes jobs)
      | Pool.Sockets _ -> conduct_workers probe_hosts);

      List.map
        (fun rt ->
          assert (
            Array.for_all Fun.id
              (Array.mapi
                 (fun i d -> d || rt.quarantined.(i))
                 rt.shard_done));
          (* Deterministic merge: the serial loop's own construction.
             Quarantined classes keep the No_effect placeholder —
             callers must consult [quarantined] before treating the
             scan as complete. *)
          let scan =
            Scan.of_outcomes ~variant:rt.cell.Runcell.spec.Spec.variant
              ~ram_bytes:rt.cell.Runcell.ram_bytes
              ~benign_weight:rt.cell.Runcell.benign_weight
              rt.cell.Runcell.golden rt.classes rt.outcomes
          in
          let quarantined =
            List.rev_map
              (fun (shard_id, attempts, cause) ->
                let s = rt.plan.Shard.shards.(shard_id) in
                {
                  q_cell = Spec.label rt.cell.Runcell.spec;
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
          (* Publish to the result store only what a future consult can
             trust blindly: a freshly conducted cell whose every shard
             completed and whose journal is on disk.  A quarantined cell
             never publishes — its journal lacks the quarantined shards'
             records, and serving it as a hit would launder a degraded
             run into a complete one. *)
          (match
             (rt.cell.Runcell.spec.Spec.policy.Spec.acceleration.Spec.cache, rt.cache_key,
              rt.journal_path)
           with
          | Some dir, Some key, Some path
            when (not rt.from_cache)
                 && quarantined = []
                 && Array.for_all Fun.id rt.shard_done -> (
              try Cache.publish ~dir ~key ~fingerprint:rt.fp ~path
              with Sys_error _ | Unix.Unix_error _ -> ())
          | _ -> ());
          { scan; quarantined; cached = rt.from_cache })
        rts_in_order)

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
