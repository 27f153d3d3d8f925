(** Worker-pool backends: a minimal Domain pool (OCaml 5 stdlib only)
    plus the backend selector shared by every engine entry point.

    {!Domains} tasks are indices [0 .. tasks-1], claimed from an atomic
    counter in ascending order, so earlier tasks start earlier regardless
    of the worker count — there is no queue to build and no per-task
    allocation.  [run] blocks until every task has finished.

    With [jobs <= 1] (or fewer than two tasks) no domain is spawned and
    tasks run inline on the calling domain in index order; this path is
    what makes [-j 1] behave exactly like a serial loop.

    The {!Processes} backend is scheduled by {!Engine} itself (it needs
    specs, journals and supervision — see {!Worker}); this module only
    names it, so [--backend] means the same thing everywhere. *)

type backend =
  | Domains  (** Shared-memory OCaml 5 domains — one process. *)
  | Processes
      (** Fork/exec'd worker processes, each speaking the {!Worker}
          frame protocol over a socketpair; supervised by the parent,
          crash-tolerant under [--resume]. *)
  | Sockets of string list
      (** Remote worker daemons ([fi-cli worker serve]) addressed as
          ["HOST:PORT"] strings; the same protocol crosses framed TCP
          connections ({!Remote}), the parent's journal stays the only
          durable state.  The list must be non-empty. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the runtime's estimate of
    available parallelism (1 on a single-core host). *)

val resolve_jobs : ?backend:backend -> ?jobs:int -> unit -> int
(** The one place a requested worker count becomes an actual one, shared
    by the engine and the CLI so no two subcommands (or backends) can
    disagree about [-j]:

    - Local backends ([Domains], [Processes], or no [backend]): [None]
      and [Some 0] mean {!default_jobs}[ ()]; [Some n ≥ 1] means [n]
      workers total.
    - [Sockets]: [-j] bounds {e per-remote-host} concurrency — [Some n ≥
      1] means at most [n] simultaneous connections to each host; [None]
      and [Some 0] return [0], the "let each daemon decide" sentinel
      (the engine then uses the capacity each daemon advertises in its
      handshake).

    @raise Invalid_argument if [jobs] is negative, with a message that
    says so and points at [0] as the all-cores (or daemon-decides)
    spelling. *)

val run :
  ?deadline:float ->
  ?on_stall:(stalled_for:float -> unit) ->
  jobs:int ->
  tasks:int ->
  (int -> unit) ->
  unit
(** [run ~jobs ~tasks f] executes [f i] once for every
    [i] in [0 .. tasks-1] on up to [jobs] domains (never more than
    [tasks]).  If one or more tasks raise, the remaining claimed tasks
    still finish, no new tasks are claimed, and the first exception is
    re-raised after all workers have joined.

    [deadline] arms a watchdog domain: if no task completes for
    [deadline] seconds while work remains, [on_stall] fires (once per
    stall episode; re-armed by the next completion).  Unlike the
    processes backend there is no kill path — domains share the heap,
    so a hung domain is {e reported}, not SIGKILLed, and [run] still
    joins it.  No watchdog runs on the inline ([jobs = 1] or
    [tasks <= 1]) path.

    @raise Invalid_argument if [jobs < 1] or [tasks < 0]. *)
