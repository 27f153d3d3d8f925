(** Stream connections carrying {!Frame}s: TCP to remote workers, a
    Unix socketpair to local ones.

    A {!conn} owns a socket, a frame {!Frame.decoder} and a read buffer.
    The two consumption styles match the two ends of the campaign
    protocol: a worker blocks in {!recv}; the engine's supervision loop
    [select]s over many connections and {!pump}s the readable ones. *)

type conn

val fd : conn -> Unix.file_descr
(** For [select]; do not read from it directly — {!pump} owns the
    decoder state. *)

val peer : conn -> string

val of_fd : peer:string -> Unix.file_descr -> conn
(** Wrap an already-connected descriptor (a local worker's socketpair
    end, tests). *)

val connect : ?timeout:float -> Addr.t -> (conn, string) result
(** Connect with [TCP_NODELAY] (doorbell frames are latency-bound).
    [timeout] (default 10 s) bounds the attempt — an unreachable host is
    an [Error], never a minutes-long kernel SYN stall. *)

val listen : Addr.t -> (Unix.file_descr * Addr.t, string) result
(** Bind + listen (with [SO_REUSEADDR]); returns the listening socket
    and the address with the {e actual} port (port [0] asks the kernel
    to pick one — how tests avoid collisions). *)

val accept : Unix.file_descr -> conn
(** Accept one connection ([EINTR]-retried, blocking). *)

val send : conn -> Frame.kind -> string -> unit
val recv : ?timeout:float -> conn -> (Frame.kind * string) option
(** Blocking {!Frame.recv}. *)

val pump :
  conn ->
  [ `Frames of (Frame.kind * string) list | `Eof | `Corrupt of string ]
(** One non-blocking-ish pump for a select loop: a single
    {!Sysio.read_avail}, then every frame it completed.  [`Frames []]
    means "nothing yet"; [`Eof] is the peer's death notice; [`Corrupt]
    is a framing violation (tear the connection down). *)

val close : conn -> unit
(** Shutdown + close, idempotent.  This is also the supervisor's kill
    switch for a remote worker: teardown replaces [SIGKILL]. *)
