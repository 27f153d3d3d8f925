(** The distributed flavour of the campaign worker: remote daemons
    reached over {!Transport} connections, the {!Pool.Sockets} backend's
    other half.

    A remote worker speaks the same protocol as a local one
    ({!Worker}): one [Job] frame carrying a {!Worker.wire_job} in, [Seg]
    and [Door] frames out.  The only addition is the handshake in
    front.  Client → worker: [Hello] (version + binary digest +
    campaign fingerprint); the worker answers [Hello] (version + digest
    + advertised capacity) or [Err]; then the job.  Because a remote
    peer is another machine, the handshake's digest check is what pins
    it to the same binary a local child is by construction.  The worker
    re-analyses the cell and refuses (an [Err] frame, then close) if
    its own fingerprint disagrees, so a campaign's results stay
    bit-identical however its shards are placed.  Teardown of the
    connection replaces [SIGKILL]: a worker whose socket dies stops
    mattering, and its unfinished shards are requeued exactly as for a
    killed process.

    The daemon ([fi-cli worker serve], or any binary whose main calls
    {!guard}) forks one child per accepted connection, at most [workers]
    conducting at once. *)

val serve_var : string
(** ["FI_ENGINE_NET_SERVE"] — ["HOST:PORT;WORKERS"] (optionally
    ["HOST:PORT;WORKERS;SECRET_FILE"]) in the environment diverts
    {!guard} into {!serve}: how tests and the bench spawn a loopback
    daemon by re-exec'ing themselves ({!spawn_daemon}). *)

val connect_timeout : float ref
val handshake_timeout : float ref
(** Patience for connecting to and handshaking with a peer (seconds,
    default 10).  Mutable so the torture suite can make half-open-peer
    tests fast; production code leaves them alone. *)

(** {1 Client side (the conducting engine)} *)

val shake :
  ?timeout:float ->
  ?secret:string ->
  Transport.conn ->
  fingerprint:string ->
  (Handshake.hello, string) result
(** The client half of the hello exchange on an open connection: send
    ours, await theirs, {!Handshake.check}.  Shared with the campaign
    service's thin clients, which handshake against the same binary
    digest (and, when armed, the same shared secret) as worker
    dispatch. *)

val probe : ?secret:string -> Addr.t -> (Handshake.hello, string) result
(** Connect, exchange hellos, close.  How the engine validates every
    [--workers] host up front (unreachable, wrong version, wrong
    binary, wrong shared secret) and learns its advertised capacity. *)

val dispatch :
  ?patience:float ->
  ?secret:string ->
  addr:Addr.t ->
  Worker.wire_job ->
  (Transport.conn, string) result
(** Connect, handshake, ship the job, and return the
    connection the worker's frames will arrive on.  [Error] covers
    refusal, timeout and connection failure — the engine turns it into
    a stillborn worker and lets supervision retry.  [patience] caps the connect and
    handshake timeouts (whichever is smaller wins): the engine shortens
    re-dials to hosts that already failed once so a dead host cannot
    stall the supervision loop for the full default timeouts on every
    backoff round. *)

(** {1 Worker side} *)

val serve_connection : capacity:int -> ?secret:string -> Transport.conn -> unit
(** Conduct one connection: handshake (refusing on version, digest or
    shared-secret mismatch), then at most one job ({!Worker.serve_job}).
    Raises on protocol violations and fingerprint disagreement — the
    daemon's per-connection child turns that into an [Err] frame and
    exit code 3. *)

val serve :
  listen:Addr.t ->
  workers:int ->
  ?secret:string ->
  ?announce:(string -> unit) ->
  unit ->
  unit
(** The daemon: bind (port [0] lets the kernel pick), call [announce]
    with the [fi-net listening HOST:PORT …] line (actual port), then
    accept forever, forking one child per connection with at most
    [workers] conducting at once.  Never returns normally. *)

val announce_line : Addr.t -> workers:int -> string
val parse_announce : string -> Addr.t option

val guard : unit -> unit
(** Call right after {!Worker.guard} in every engine-hosting main: if
    {!serve_var} is set, become a daemon (announcing on stdout, leading
    a fresh process group so killing the group takes the conducting
    children too) and never return. *)

val spawn_daemon :
  ?listen:Addr.t ->
  workers:int ->
  ?secret_file:string ->
  unit ->
  (int * Addr.t, string) result
(** Re-exec this executable as a daemon ({!serve_var}) and read the
    announced address back (default listen: [127.0.0.1:0]).  Returns
    the daemon's pid and actual address.  [secret_file] arms
    shared-secret auth on the spawned daemon.  Test/bench harness. *)

val kill_daemon : int -> unit
(** SIGKILL the daemon's process group (conducting children included)
    and reap it — the torture suite's cluster-power-cut. *)
