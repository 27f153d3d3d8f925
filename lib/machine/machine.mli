(** The deterministic machine simulator.

    This is the substrate the paper assumes (Section II-C): a simple RISC
    CPU with classic in-order execution, no caches, a wait-free main
    memory, one cycle per instruction, executing its program from
    fault-immune ROM.  Benchmark runs are fully deterministic: the same
    program and initial state produce the exact same instruction and
    memory-access sequence, and the machine can be paused at an arbitrary
    cycle to inject a fault (flip a RAM bit) and resumed afterwards.

    Cycle numbering: the [t]-th executed instruction (1-indexed) executes
    *at* cycle [t].  A fault at coordinate [(t, bit)] is injected after
    [t−1] instructions have executed, i.e. immediately before instruction
    [t]; [Faultspace.coord] is the coordinate and [Faultspace] each
    fault model's geometry.

    Every fetch takes its cycle, including one at [pc = length code]:
    a program that falls off the end of its code stops with
    [Bad_pc (length code)] one cycle after its last instruction, on
    every path ({!run}, {!step}, an exec-traced run, {!skip_next}).

    Two interpreters execute the same semantics.  {!step} is the
    reference: it decodes and executes one instruction per call.
    {!run} and {!run_until} use code compiled into basic blocks once
    per {!create}, on the first run that uses it, and shared by every
    {!fork} and {!Snapshot.restore} of it, on any domain; a machine
    with an exec tracer only {!step}s, so it compiles only if a fork or
    snapshot of it runs.  A block ends at a control transfer ([Beq], [Jmp],
    [Jal], [Jr], [Halt]) or at every 16th pc.  Each instruction is a
    closure specialised on its operands that tail-calls its
    successor's, so the run loop checks the cycle budget and charges
    the cycles once per block.  In-RAM words load and store in one
    access, and two constant idioms run as one closure (see
    {!fused_length}).  Traps, MMIO stores and tracer calls
    see the exact pc and cycle of their instruction.  A block that
    does not fit the remaining budget runs on {!step}, one instruction
    at a time, so runs stop on the exact cycle asked for.  The test
    suite checks the two paths against each other. *)

(** CPU traps (abnormal termination causes). *)
type trap =
  | Misaligned_access of int  (** Word access to a non-4-aligned address. *)
  | Unmapped_access of int    (** Access outside RAM, ROM and MMIO. *)
  | Rom_write of int          (** Store into the ROM window. *)
  | Division_by_zero
  | Bad_pc of int
      (** Control transfer outside the code, or falling off its end. *)

(** Why a run stopped. *)
type stop_reason =
  | Halted              (** The program executed [halt] — normal exit. *)
  | Trapped of trap     (** CPU exception. *)
  | Panicked of int32   (** Software fail-stop via the panic MMIO port. *)
  | Cycle_limit         (** Watchdog: the cycle budget was exhausted. *)

val pp_stop_reason : Format.formatter -> stop_reason -> unit

type access_kind = Read | Write

type tracer = cycle:int -> addr:int -> width:int -> kind:access_kind -> unit
(** Called once per RAM access (ROM and MMIO accesses are not part of the
    fault space and are not traced).  [addr] is the RAM byte offset of the
    first byte touched; [width] is 1 or 4. *)

type exec_tracer = cycle:int -> Isa.instr -> unit
(** Called once per executed instruction, before it executes.  Used by the
    register fault-space extension (Section VI-B of the paper) to derive
    per-cycle register def/use sets. *)

type t
(** A machine instance. *)

val create : ?tracer:tracer -> ?exec_tracer:exec_tracer -> Program.t -> t
(** [create program] is a machine reset to the program's initial state:
    [pc = 0], registers zero, RAM zeroed then initialised from
    [program.ram_init].  The optional [tracer] observes every RAM access;
    [exec_tracer] observes every executed instruction. *)

val program : t -> Program.t
val cycle : t -> int
(** Number of instructions executed so far. *)

val pc : t -> int
val stopped : t -> stop_reason option
val serial_output : t -> string
(** Bytes written to the serial port so far.  Machines restored from a
    {!Snapshot} share their pre-restore serial history as an immutable
    prefix, so this materialises a fresh string; call it once per
    classification, not per cycle. *)

val serial_length : t -> int
(** [String.length (serial_output m)], without materialising the
    output. *)

val serial_agrees : t -> prefix:string -> len:int -> bool
(** [serial_agrees m ~prefix ~len] is
    [String.equal (serial_output m) (String.sub prefix 0 len)], computed
    in place without allocating.  The shared serial prefix is not
    compared when it is physically [prefix]. *)

val detection_events : t -> (int * int32) list
(** Detection events [(cycle, code)] recorded through the detect port, in
    chronological order.  By convention the kernel writes
    {!Event_codes.corrected} when a fault-tolerance mechanism repaired an error
    and {!Event_codes.detected} when it only detected one. *)

val event_count : t -> int
(** [List.length (detection_events m)], without the reversal copy. *)

val reg : t -> Isa.reg -> int32
(** Current register value ([r0] always reads 0). *)

val set_reg : t -> Isa.reg -> int32 -> unit
(** Poke a register (used by tests; not by campaigns). *)

val read_ram_byte : t -> int -> int
(** [read_ram_byte m off] inspects RAM without tracing.

    @raise Invalid_argument outside RAM. *)

val write_ram_byte : t -> int -> int -> unit
(** Poke RAM without tracing (used by tests). *)

val flip_bit : t -> int -> unit
(** [flip_bit m bit] flips RAM bit [bit] (byte [bit / 8], bit
    [bit mod 8]) — the fault-injection primitive.  Not traced: a fault is
    not a program memory access.

    @raise Invalid_argument outside RAM. *)

val flip_reg_bit : t -> reg:int -> bit:int -> unit
(** [flip_reg_bit m ~reg ~bit] flips bit [bit] (0–31) of register [reg]
    (1–15) — the injection primitive of the register fault-space
    extension.  Flips of [r0] are rejected: it is hardwired to zero.

    @raise Invalid_argument outside the register file. *)

val step : t -> unit
(** Execute one instruction (no-op if the machine has stopped) with the
    reference interpreter, which shares no code with the compiled
    blocks of {!run}. *)

val skip_next : t -> unit
(** Execute the next fetched instruction as if it were [Nop]: one cycle
    elapses and pc advances, but no architectural state changes — the
    instruction-skip fault-injection primitive ([Faultspace.Skip]).
    Subsequent instructions shift one slot earlier in time.  No-op if
    the machine has stopped; at [pc = length code] the fetch takes its
    cycle and stops with [Bad_pc], as under {!step}. *)

val run : t -> limit:int -> stop_reason
(** [run m ~limit] executes until the machine stops or [limit] total
    cycles have been executed; in the latter case the machine is stopped
    with [Cycle_limit].  Idempotent on stopped machines.  Runs the
    compiled blocks, or {!step} throughout when the machine has an
    exec tracer. *)

val run_until : t -> cycle:int -> unit
(** [run_until m ~cycle] executes until [cycle m = cycle] (i.e. exactly
    [cycle] instructions have executed) or the machine stops, whichever
    comes first.  Used to position the machine just before a
    fault-injection point. *)

val fused_length : Program.t -> int -> int
(** [fused_length prog pc] is how many instructions from [pc] on the
    compiled interpreter runs as one closure: 2 for [li r, c; op rd,
    ra, r] ([ra <> r], [op] not [divu]/[remu]), 3 for [li r, c; shli
    r2, r, s; lw rd, off(r2)] loading a constant, aligned in-RAM
    address, 1 otherwise.  Fusion stays inside a block and does not
    change cycles, traps, tracer calls or the pcs a run can stop at. *)

val fork : t -> t
(** [fork m] is an independent machine with identical state — the
    one-copy fusion of {!Snapshot.capture} followed by
    {!Snapshot.restore}.  The fork has no tracers. *)

(** Deep-copyable machine state, for checkpoint-based campaign
    acceleration.  Serial output is stored as an immutable shared prefix
    plus the bytes buffered past it, so capturing and restoring machines
    that descend from a common checkpoint ladder never copies the full
    output. *)
module Snapshot : sig
  type machine := t
  type t

  val capture : machine -> t
  (** Freeze the complete machine state. *)

  val restore : t -> machine
  (** Materialise a fresh machine from the snapshot, without tracers;
      the new machine is independent of both the snapshot and the
      original. *)

  val cycle : t -> int
  (** Cycle count at capture. *)

  val serial_length : t -> int
  (** Serial bytes emitted at capture — the length watermark. *)

  val event_count : t -> int
  (** Detection events recorded at capture. *)
end

val run_checkpointed :
  t -> stride:int -> limit:int -> stop_reason * Snapshot.t array
(** Interval-checkpointing driver: run [m] to completion (or [limit],
    as {!run}) capturing a snapshot after every [stride] executed cycles
    while the machine is still running.  Serial state is recorded per
    checkpoint as a length watermark and resolved against the run's
    final output once it stops, so the whole ladder shares one string —
    no per-checkpoint output copies.  Snapshots are returned in
    ascending cycle order.

    @raise Invalid_argument if [stride <= 0]. *)

type live_ram
(** A set of live-in RAM bytes, laid out for {!converges_with}: a byte
    mask the size of RAM and the offsets of the 8-byte windows that
    hold a live byte. *)

val live_ram : Bytes.t -> live_ram
(** [live_ram mask]: the bytes where [mask] is non-zero are live.
    [mask] must be as long as the RAM it will be compared on, and is
    not copied. *)

val converges_with :
  t -> Snapshot.t -> ram_live:live_ram -> reg_mask:int -> bool
(** [converges_with m snap ~ram_live ~reg_mask]: does running machine
    [m] agree with checkpoint [snap] on everything that can influence
    future execution — pc, cycle count, the registers whose bit is set
    in [reg_mask] and the RAM bytes live in [ram_live]?  The masks
    must name (at least) every location the checkpoint's run still
    {e reads before overwriting} — its live-in set; locations the run
    overwrites first, or never touches again, may disagree freely.  On
    a deterministic machine, agreement then proves both executions
    evolve identically from this point on: every future read sees the
    same value (live-in locations agree now; everything else is
    rewritten — identically, by induction — before being read), so the
    same instructions run with the same operands.  Serial output and
    detection events are deliberately not compared — they record the
    past, not the future.  RAM is compared a masked 64-bit word at a
    time.

    @raise Invalid_argument if [ram_live] was built for another RAM
    size. *)

val encode_diff : Buffer.t -> t -> Snapshot.t -> unit
(** [encode_diff buf m snap] appends an exact sparse encoding of [m]'s
    state relative to [snap]: [snap]'s process-unique identity, [m]'s
    serial length, event count and pc, every register that differs
    from [snap] with its value, and every RAM byte that differs with
    its offset and value.  Nothing is masked by liveness.  Two
    encodings are equal iff they are relative to the same snapshot and
    the machines agree on serial length, event count, pc, every
    register and every RAM byte.  Cycle, serial contents and stop
    state are not encoded; a caller that needs them in a key checks
    them itself. *)
