(** Pluggable fault models.

    The paper's pitfalls (result dilution, biased sampling, unfair
    cross-layer comparison) are all stated over a {e fault space}, yet
    until this module the reproduction hard-coded exactly two — single-bit
    memory flips and single-bit register flips.  A {!model} is a
    first-class value describing {e which} faults a campaign injects; a
    {!cell} is that model analysed against one program: the experiment
    equivalence classes to shard, the a-priori-benign weight, the
    model's raw geometry — its axes, the map from a raw coordinate to
    the experiment slot that stands for it, and the per-coordinate
    injection every slot is conducted with — and the session provider
    every conductor of the cell draws from.  It is the one analysed-cell
    type: the serial scan, the samplers and every engine backend conduct
    the same record.

    The geometry is what the paper's own checks are stated over: uniform
    sampling from the {e raw} space (Pitfall 2, {!Sampler.uniform_raw})
    and the brute-force sweep that proves pruning lossless
    ({!brute_force}, Section III-C) work for every model alike.

    Every model reuses the engine's whole execution stack unchanged —
    sharding, journaling, [--resume], the result cache, and all three
    backends — because each one presents its space as an array of
    {!Defuse.byte_class}es (8 experiment slots per class, the journal's
    record granularity) whose canonical injection cycles are
    non-decreasing in [t_end] order, the only invariant the engine's
    per-shard sessions require.

    The four models:

    - {!Bitflip_mem} — the paper's model: one bit of data memory, def/use
      pruned.
    - {!Bitflip_reg} — the Section VI-B register file space
      ({!Regspace}), from the same golden run.
    - {!Burst} — [width] bits of one data byte flip together, adjacent or
      interleaved by a row stride, modelling the spatially-correlated
      multi-bit upsets observed in undervolted SRAMs (Soyturk et al.).
      Def/use pruning stays sound because the burst never leaves the
      addressed byte: equivalence intervals are per-byte access
      boundaries, independent of how many bits flip inside the byte.
    - {!Skip} — instruction skip (InjectV-style, Lentini et al.): a
      cycle-indexed space where the instruction fetched at the injection
      cycle executes as a no-op ({!Machine.skip_next}).  Cycles are packed
      8 per synthetic class to fit the journal's 8-slots-per-class record
      format; see {!of_golden}. *)

type burst_pattern =
  | Adjacent  (** Bits [b, b+1, …] (mod 8) flip together. *)
  | Row of int
      (** Bits [b, b+s, b+2s, …] (mod 8) for row stride [s] — the
          bit-interleaved physical-row adjacency of real SRAM arrays,
          where logically distant bits are physical neighbours. *)

type model =
  | Bitflip_mem  (** Single-bit memory flips (the paper's model). *)
  | Bitflip_reg  (** Single-bit register-file flips (Section VI-B). *)
  | Burst of { width : int; pattern : burst_pattern }
      (** [width]-bit multi-bit upset within one byte (2–8 bits). *)
  | Skip  (** One-cycle instruction skip. *)

val burst : ?row:int -> int -> model
(** [burst width] is [Burst {width; pattern = Adjacent}]; [burst ~row:s
    width] uses [Row s].  @raise Invalid_argument unless [2 <= width <= 8]
    and [2 <= s <= 7]. *)

val tag : model -> string
(** The stable fingerprint tag: ["mem"], ["reg"], ["burst<w>"],
    ["burst<w>r<s>"], ["skip"].  Recorded in journal fingerprints,
    journal headers and result-cache keys — two campaigns with different
    tags never cross-resume and never share cache entries.  The legacy
    models keep their pre-subsystem tags, so their fingerprints, journals
    and cache keys are byte-identical to before. *)

val of_tag : string -> (model, string) result
(** Parse a {!tag} back (the CLI's [--fault-model] parser); [Error]
    carries a human-readable message listing the known forms. *)

val describe : model -> string
(** One-line human description, for reports and [--help]. *)

val legacy : model -> bool
(** [true] for {!Bitflip_mem}/{!Bitflip_reg} — the models whose journal
    headers keep the pre-subsystem ["fi-engine v2"] version string (new
    models write ["fi-engine v3"], see {!DESIGN.md} §15). *)

val known : (string * string) list
(** [(tag form, description)] pairs for help output. *)

type coord = { cycle : int; bit : int }
(** A raw fault-space coordinate.

    [(cycle, bit)] means: disturb row [bit] immediately before the
    instruction executing at [cycle] (1-indexed).  What a row is depends
    on the fault model — a RAM bit, a register-file bit, or the single
    row of the instruction-skip space; a {!cell}'s [rows] and [locate]
    give each model's axes and map a coordinate to the experiment that
    stands for it. *)

type cell = {
  model : model;
      (** The fault model the cell was analysed under — what the
          engine's fingerprint and journal header name ({!tag}). *)
  golden : Golden.t;  (** The shared fault-free reference run. *)
  classes : Defuse.byte_class array;
      (** Experiment equivalence classes, 8 experiment slots per class.
          Byte-class models keep the def/use order, sorted by
          [(byte, t_start)]; skip's synthetic classes ascend in [t_end].
          The engine ranks classes by [t_end] (its shard-contiguity
          invariant). *)
  ram_bytes : int;
      (** Real ({!Bitflip_mem}/{!Burst}), pseudo ({!Bitflip_reg}: 60) or
          synthetic ({!Skip}: class count) row footprint — the
          fingerprint's and {!Scan.t}'s [ram_bytes]. *)
  benign_weight : int;
      (** Fault-space coordinates known benign a priori (overwritten or
          dormant classes); [0] for {!Skip}, whose space has no pruning. *)
  rows : int;
      (** The row axis of the raw space: [8·Δm] bits for {!Bitflip_mem}
          and {!Burst} (one burst per anchoring bit), [480] register
          bits for {!Bitflip_reg}, [1] for {!Skip}.  Coordinates are
          [\[1, Δt\] × \[0, rows)]; see {!space}. *)
  slots : int;
      (** Experiment slots that stand for fault-space coordinates: slot
          [8 × class + bit] with index [>= slots] is padding, conducted
          as {!Outcome.No_effect} and weighted 0 in the scan.  Only
          {!Skip} pads (its last class past [Δt]); every other model
          has [slots = 8 × Array.length classes]. *)
  locate : coord -> int option;
      (** The experiment slot a raw coordinate belongs to — the index
          [8 × class + bit] that {!Scan.of_outcomes}, journals and the
          engine use — or [None] when the coordinate is a-priori benign
          (an overwritten or dormant interval).  Byte-class models find
          the class by binary search over [classes], so nothing is built
          up front; skip's cycle [c] is slot [c − 1].  Never returns a
          padding slot.
          @raise Invalid_argument outside the model's axes. *)
  inject : Injector.session -> coord -> Outcome.t;
      (** Conduct the model's fault at one raw coordinate on a session
          (flip the memory bit, the burst anchored at it, the register
          bit, or skip the instruction fetched at the cycle) through
          {!Injector.session_run_flip}.  Cycles must be non-decreasing
          per session.
          @raise Invalid_argument outside the model's axes, with the
          message {!field-locate} raises. *)
  conduct :
    Injector.session -> Defuse.byte_class -> bit_in_byte:int -> Outcome.t;
      (** Conduct one experiment slot: {!field-inject} at the slot's
          canonical coordinate — a byte class's [t_end] (directly before
          the activating read, Figure 1b), a skip slot's own cycle —
          and {!Outcome.No_effect} for skip's padding slots.  Injection
          cycles are non-decreasing when classes are visited in [t_end]
          order with ascending slots. *)
  provider : unit -> Injector.provider;
      (** The session provider every conductor of this cell draws from:
          an {!Injector.plan} over [golden] at {!Injector.default_stride}
          for a fresh cell, at another stride after {!with_stride}.
          Built by the first call and shared by every later one, so a
          process that only analyses or schedules never builds the
          checkpoint ladder.  Safe to call from several domains at
          once. *)
}

val with_stride : int -> cell -> cell
(** [with_stride n cell] is [cell] with a fresh {!field-provider}: an
    {!Injector.plan} at stride [n].  [with_stride 0 cell] conducts on
    the restart-from-reset replay provider, the reference every
    shortcut is checked against.  The two cells share everything else
    and never each other's provider or its {!Injector.counts}. *)

val of_golden : model -> Golden.t -> cell
(** Analyse a model against an existing golden run — the one analysed
    source of every model.

    {!Bitflip_mem} and {!Burst} share the def/use partition (classes,
    weights and benign weight are identical — a burst only widens what
    flips {e inside} the addressed byte); both read it from the golden
    run's {!Defuse.t}, whose analysis already separated the experiment
    classes and summed the benign weight.  {!Bitflip_reg} partitions
    the register file directly from the golden run's register trace
    ({!Regspace.of_golden}, two passes over {!Golden.registers}, which
    the program records on first use and every later cell and
    checkpoint ladder over the same golden run shares): each register
    interval that ends in a read is four byte classes of the 60-byte
    pseudo-memory.  {!Skip} builds a synthetic partition
    over the cycle axis: class [i] covers cycles [8i+1 … 8i+8], encoded
    as [{byte = i; t_start = t_end = 8i+1}] so each slot's
    {!Defuse.weight}-derived experiment weight is 1 (every cycle is its
    own equivalence class — no pruning), and slot [s] injects at cycle
    [s + 1].  Trailing slots of the last class that fall beyond the
    golden runtime are conducted as {!Outcome.No_effect} without running
    the machine, and weigh 0 ([slots = Δt]), so the space is exactly
    [Δt] cycles.

    @raise Invalid_argument for a malformed {!Burst}. *)

val analyse : ?limit:int -> model -> Program.t -> cell
(** [of_golden model (Golden.run ?limit program)]: analyse from
    scratch.  The program runs once more, on the reference interpreter,
    to record the golden run's register trace ({!Golden.registers}) — at
    analysis for {!Bitflip_reg}, at the first ladder build otherwise —
    and never again for this cell: its analysis and its ladder share
    that trace. *)

val experiments : cell -> int
(** [8 × Array.length classes] — the campaign's experiment count. *)

val space : cell -> int
(** The model's fault-space size [Δt × rows], in coordinates: [Δt ×
    8·Δm] bit-cycles for {!Bitflip_mem} and {!Burst}, [Δt × 480] for
    {!Bitflip_reg}, [Δt] cycles for {!Skip}.  A lossless partition's
    experiment weights plus [benign_weight] sum to it. *)

val scan : ?variant:string -> cell -> Scan.t
(** The serial reference campaign of every model, and the only serial
    scan: visit the classes in [t_end] order ({!Defuse.rank_by_t_end},
    the engine plan's ranking too) on one session over the
    cell's {!field-provider}, conduct their 8 slots each with
    {!field-conduct} ({!conduct_slots}) and assemble the result with
    {!Scan.of_outcomes}.  The campaign engine is bit-identical to it for
    any worker count and backend.  [scan (with_stride 0 cell)] is the
    restart-from-reset reference the checkpoint plan is checked against.
    [variant] is the scan's label (default ["baseline"]). *)

val conduct_slots : cell -> int array -> Outcome.t array
(** [conduct_slots cell slots] conducts each experiment slot [8 × class
    + bit] of [slots], in array order, on one session over the cell's
    {!field-provider}, and returns their outcomes in the same order.
    The slots' canonical injection cycles must be non-decreasing
    ({!Injector.session_run_flip}); {!scan} and [Sampler.conduct] order
    them by [t_end]. *)

val outcome_at : cell -> Scan.t -> coord -> Outcome.t
(** The outcome a finished scan of this cell implies at a raw
    coordinate: the experiment at its {!field-locate}d slot, or
    {!Outcome.No_effect} when it is a-priori benign — the pruned scan
    expanded over the raw space. *)

val brute_force : cell -> (coord * Outcome.t) array
(** One {!field-inject} per raw coordinate, cycle-major ([space cell]
    entries), on one replay session — the ground truth pruning is
    checked against: a lossless partition has [outcome_at cell scan
    coord] equal to it everywhere.  Costs [space cell] runs; only for
    small validation programs. *)
