(** The golden (fault-free) reference run.

    Every campaign starts with one traced, fault-free execution that
    defines correct behaviour (serial output), the benchmark's runtime Δt,
    and the memory-access trace from which def/use pruning derives the
    experiment plan. *)

type t = private {
  program : Program.t;
  output : string;  (** Correct serial output. *)
  cycles : int;  (** Δt: the benchmark's runtime in CPU cycles. *)
  event_count : int;  (** Detection events during the fault-free run (normally 0). *)
  trace : Trace.t;  (** Sealed access trace. *)
  defuse : Defuse.t;  (** Fault-space partition. *)
  registers : registers;  (** See {!val-registers}. *)
}

and registers
(** The once-cell behind {!val-registers}. *)

exception Golden_failed of Program.t * Machine.stop_reason
(** The fault-free run did not halt normally — the benchmark itself is
    broken (or the [limit] too small). *)

val run : ?limit:int -> Program.t -> t
(** [run program] executes the fault-free run with tracing.  [limit]
    bounds the run (default [50_000_000] cycles).

    @raise Golden_failed if the program does not halt normally. *)

val registers : t -> Bytes.t
(** The run's register trace: for each cycle, the
    {!Isa.reg_uses_defs} mask of the instruction executed then, packed
    in 4 bytes; read it with {!uses_defs}.  The compiled interpreter
    traces RAM but not instructions, so the first call replays the
    program once on the reference interpreter with an exec tracer;
    every later call, from any domain, returns the same bytes.  A
    process that never asks — a cache hit, a cell that conducts
    nothing — never pays for it.  The register fault space
    ({!Regspace.of_golden}) and the checkpoint plan's register live-in
    masks ({!Injector.plan}) share it.  Read-only. *)

val uses_defs : Bytes.t -> int -> int
(** [uses_defs registers c] is the {!Isa.reg_uses_defs} mask of cycle
    [c] (1 to the run's cycles) of a register trace. *)

val register_replays : unit -> int
(** How many register-trace replays {!val-registers} has run in this
    process, over every golden run: a probe for tests and benchmarks. *)

val fault_space_size : t -> int
(** Raw fault-space size [w = Δt × 8·Δm]. *)

val timeout_limit : t -> int
(** Watchdog budget for experiment runs: [2×] the golden runtime plus a
    constant — generous enough for detection/correction detours, short
    enough to catch corrupted loop bounds. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: name, cycles, RAM, fault-space size, experiments. *)
