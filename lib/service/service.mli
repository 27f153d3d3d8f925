(** Campaign-as-a-service: a resident daemon that accepts fault-injection
    campaigns over the framed {!Frame} protocol, executes them on its
    configured backend (local pools or a {!Remote} worker fleet),
    streams progress back, and serves repeat submissions straight from
    the {!Cache} result store without touching the fleet.

    The service is a thin layer over the engine's own vocabulary: a
    submission is a list of {!Worker.wire_cell}s, the reply carries
    each cell's {!Engine.result}, both cross in a {!Worker.codec}, the
    hello is {!Remote.answer_hello}, the up-front cache routing keys
    cells with {!Worker.cell_key} (the engine's own derivation), and
    the re-exec harness is {!Remote}'s.

    The daemon ([fi-cli serve]) holds one listening socket and one
    select loop.  Each client connection carries one job: hello
    exchange (version + binary digest + optional shared-secret tag,
    exactly as worker dispatch), a [Submit] frame, then [Stat] / [Prog]
    progress lines until the [Res] frame.  The hello is the session's
    first frame, handled in the loop like any other, so a client that
    connects and stays silent never blocks other sessions; it is dropped
    at {!Remote.handshake_timeout}.  Jobs from different client hosts
    are queued fairly ({!Fairq}: FIFO within a host, round-robin across
    hosts) with a bounded per-host admission window; the fleet conducts
    one campaign at a time.  Each submission is routed once, on
    arrival: if every cell is already published in the result store it
    bypasses the queue and is answered immediately by a local replay —
    a cache hit is never delayed behind someone else's campaign.

    A client that disconnects mid-run does not kill its campaign: the
    runner finishes, publishes the cells to the result store, and the
    work is a cache hit for whoever asks next. *)

(** {2 Wire formats}

    {!Worker.codec}s: magic-prefixed [Marshal] {e without} closures —
    sound because the handshake's binary digest pins both ends to the
    same executable, as for worker jobs. *)

val submission : Worker.wire_cell list Worker.codec
(** A submission: the cells to run, described exactly as a worker job
    describes its cell.  Execution policy (journalling, supervision,
    caching) is the {e service's} to decide — submitters describe the
    campaign, not how the daemon runs it. *)

val results : (string * Engine.result) list Worker.codec
(** The reply: each cell's {!Spec.label} with its {!Engine.result}, in
    submission order — the same value [fi-cli campaign] reads. *)

(** {2 Daemon} *)

type config = {
  listen : string;  (** HOST:PORT, port 0 = kernel-assigned. *)
  workers : string list;  (** Remote fleet; [[]] = run locally. *)
  local_backend : Pool.backend;
      (** {!Pool.Domains} or {!Pool.Processes}, used when [workers] is
          empty. *)
  jobs : int;  (** 0 = {!Pool.default_jobs}. *)
  window : int;  (** {!Fairq} admission window, per client host. *)
  artifacts : string;
      (** Artifact store: journals and one [<key>.result] entry file
          per cached cell. *)
  secret_file : string option;
      (** Arms shared-secret handshake auth for clients {e and} towards
          fleet workers. *)
}

val default_config : config

val serve : ?config:config -> ?announce:(string -> unit) -> unit -> unit
(** Run the daemon loop; never returns normally.  [announce] receives
    the one-line [fi-svc listening HOST:PORT digest=…] banner
    ({!Remote.listen_announce}) once the socket is bound.
    @raise Failure on bind failure, a {!Pool.Sockets} [local_backend]
    without [workers], or an unreadable secret file. *)

val daemon : config Remote.daemon
(** The service daemon ({!serve}) under [FI_ENGINE_SVC_SERVE], for
    {!Remote.spawn_daemon}: the test and bench harness — production
    deployments run [fi-cli serve] directly. *)

val guard : unit -> unit
(** [Remote.daemon_guard daemon].  Call first thing in [main], after
    {!Remote.guard}. *)

(** {2 Thin clients} *)

val submit :
  ?secret:string ->
  ?on_progress:(string -> unit) ->
  addr:Addr.t ->
  Worker.wire_cell list ->
  ((string * Engine.result) list, string) result
(** Connect, handshake, submit the cells, stream progress lines into
    [on_progress], return the per-cell results.  [Error] covers
    refusal (auth, admission window, malformed payload), transport
    failure, and a daemon that died mid-campaign. *)

val status : ?secret:string -> addr:Addr.t -> unit -> (string, string) result
(** One-line daemon status: connected clients, queue depth, fleet
    busyness, published cache cells. *)
