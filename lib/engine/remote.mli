(** The distributed flavour of the campaign worker: remote daemons
    reached over {!Transport} connections, the {!Pool.Sockets} backend's
    other half.

    A remote worker speaks the same protocol as a local one
    ({!Worker}): [Job] frames carrying {!Worker.wire_job}s in until EOF,
    [Seg] and [Door] frames out.  The only addition is the handshake in
    front.  Client → worker: [Hello] (version + binary digest); the
    worker answers [Hello] (version + digest + advertised capacity) or
    [Err]; then the jobs.  Because a remote
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
    at once; an engine holds one connection per seat for its whole
    call.  The server-side hello ({!answer_hello}), the
    handshake timeout and the re-exec harness ({!daemon_guard},
    {!spawn_daemon}, {!kill_daemon}) are shared with the campaign
    service. *)

val connect_timeout : float ref
val handshake_timeout : float ref
(** Patience for connecting to and handshaking with a peer (seconds,
    default 10).  Mutable so the torture suite can make half-open-peer
    tests fast; production code leaves them alone. *)

(** {1 Client side (the conducting engine)} *)

val with_peer :
  ?secret:string ->
  Addr.t ->
  (Transport.conn -> Handshake.hello -> ('a, string) result) ->
  ('a, string) result
(** Connect, exchange hellos (ours, then theirs, {!Handshake.check}ed),
    run [f] on the connection and the peer's hello, close.  Refusal,
    timeouts, transport errors and corrupt frames all come back as
    [Error].  The campaign service's thin clients are built on it. *)

val probe : ?secret:string -> Addr.t -> (Handshake.hello, string) result
(** Connect, exchange hellos, close.  How the engine validates every
    [--workers] host up front (unreachable, wrong version, wrong
    binary, wrong shared secret) and learns its advertised capacity. *)

val dial :
  ?patience:float -> ?secret:string -> Addr.t -> (Transport.conn, string) result
(** Connect and handshake, and return the connection: a worker seat's,
    which carries every job the engine sends it until the engine
    half-closes it.  [Error] covers refusal, timeout and connection
    failure — the engine turns it into a worker born dead and lets
    supervision retry.  [patience] caps the connect and
    handshake timeouts (whichever is smaller wins): the engine shortens
    re-dials to hosts that already failed once so a dead host cannot
    stall the supervision loop for the full default timeouts on every
    backoff round. *)

(** {1 Server side} *)

val answer_hello :
  ?capacity:int ->
  ?secret:string ->
  Transport.conn ->
  string ->
  (unit, string) result
(** The server half of the hello exchange, given the client's [Hello]
    payload: {!Handshake.check} it (version, shared secret, binary
    digest) and reply [Hello] (advertising [capacity]) or [Err] with
    the refusal, which is also returned.  Worker daemons and the
    campaign service answer every client through it. *)

val serve :
  listen:Addr.t ->
  workers:int ->
  ?secret:string ->
  ?announce:(string -> unit) ->
  unit ->
  unit
(** The daemon: bind (port [0] lets the kernel pick), call [announce]
    with the [fi-net listening HOST:PORT workers=N digest=…] line
    (actual port), then accept forever, forking one child per
    connection with at most [workers] connections served at once.  Each
    child {!answer_hello}s the first frame (within {!handshake_timeout}),
    then serves jobs until EOF ({!Worker.serve_jobs}; only the first job
    is awaited within {!handshake_timeout}, an idle seat waits for its
    next one as long as its engine keeps it open); a refusal, protocol
    violation or fingerprint disagreement becomes an [Err] frame and
    exit code 3.  Never returns normally. *)

val listen_announce :
  prefix:string ->
  ?tags:string list ->
  announce:(string -> unit) ->
  Addr.t ->
  Unix.file_descr
(** Bind a daemon's listening socket, ignore [SIGPIPE] (a vanished peer
    surfaces as [EPIPE]) and [announce] the one announce format,
    [PREFIX listening HOST:PORT TAGS… digest=MD5] with the actual port
    — for ["fi-net"] worker daemons and the ["fi-svc"] campaign service
    alike.
    @raise Failure when the address cannot be bound. *)

(** {1 Re-exec harness}

    How tests, the bench and the CLI start a loopback daemon: re-exec
    this binary with the daemon's configuration in its environment;
    the binary's guard diverts it into the daemon before [main] runs. *)

type 'config daemon = {
  var : string;  (** Environment variable carrying the configuration. *)
  prefix : string;  (** Announce prefix, also tags startup diagnostics. *)
  run : 'config -> announce:(string -> unit) -> unit;
      (** Serve forever, announcing the bound address once. *)
}

val daemon_guard : 'config daemon -> unit
(** No-op unless [var] is set.  Otherwise this process {e is} the
    daemon: decode the configuration, lead a fresh session (so killing
    the group takes the daemon's children too), [run] it announcing on
    stdout, and never return — exit code 3 with a pid-tagged message on
    startup failure. *)

val spawn_daemon : 'config daemon -> 'config -> (int * Addr.t, string) result
(** Re-exec this executable as the daemon and read its announce line
    back.  Returns the daemon's pid and actual bound address. *)

val kill_daemon : int -> unit
(** SIGKILL the daemon's process group (children included) and reap
    it — the torture suite's cluster-power-cut. *)

val secret_of_file : string option -> string option
(** Load a daemon's shared secret ({!Hmac.load_secret}).
    @raise Failure when the file is unreadable. *)

type config = {
  listen : Addr.t;
  workers : int;  (** Conducting seats. *)
  secret_file : string option;  (** Arms shared-secret auth. *)
}
(** A worker daemon, as {!spawn_daemon} starts one. *)

val default_config : config
(** [127.0.0.1:0], one seat, no secret. *)

val daemon : config daemon
(** The worker daemon ({!serve}) under [FI_ENGINE_NET_SERVE]. *)

val guard : unit -> unit
(** [daemon_guard daemon].  Call right after {!Worker.guard} in every
    engine-hosting main. *)
