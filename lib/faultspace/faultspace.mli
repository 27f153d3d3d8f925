(** Pluggable fault models.

    The paper's pitfalls (result dilution, biased sampling, unfair
    cross-layer comparison) are all stated over a {e fault space}, yet
    until this module the reproduction hard-coded exactly two — single-bit
    memory flips and single-bit register flips.  A {!model} is a
    first-class value describing {e which} faults a campaign injects; a
    {!cell} is that model analysed against one program: the experiment
    equivalence classes to shard, the a-priori-benign weight, and the
    model's raw geometry — its axes, the map from a raw coordinate to
    the experiment slot that stands for it, and the per-coordinate
    injection every slot is conducted with.

    The geometry is what the paper's own checks are stated over: uniform
    sampling from the {e raw} space (Pitfall 2, {!Sampler.uniform_raw})
    and the brute-force sweep that proves pruning lossless
    ({!brute_force}, Section III-C) work for every model alike.

    Every model reuses the engine's whole execution stack unchanged —
    sharding, journaling, [--resume], the result cache, and all four
    backends — because each one presents its space as an array of
    {!Defuse.byte_class}es (8 experiment slots per class, the journal's
    record granularity) whose canonical injection cycles are
    non-decreasing in [t_end] order, the only invariant the engine's
    per-shard sessions require.

    The four models:

    - {!Bitflip_mem} — the paper's model: one bit of data memory, def/use
      pruned.
    - {!Bitflip_reg} — the Section VI-B register file space
      ({!Regspace}).
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

type cell = {
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
  locate : Coordspace.coord -> int option;
      (** The experiment slot a raw coordinate belongs to — the index
          [8 × class + bit] that {!Scan.of_outcomes}, journals and the
          engine use — or [None] when the coordinate is a-priori benign
          (an overwritten or dormant interval).  Byte-class models find
          the class by binary search over [classes], so nothing is built
          up front; skip's cycle [c] is slot [c − 1].  Never returns a
          padding slot.
          @raise Invalid_argument outside the model's axes. *)
  inject : Injector.session -> Coordspace.coord -> Outcome.t;
      (** Conduct the model's fault at one raw coordinate on a session
          (flip the bit, the burst anchored at it, the register bit, or
          skip the instruction fetched at the cycle).  Cycles must be
          non-decreasing per session. *)
  conduct :
    Injector.session -> Defuse.byte_class -> bit_in_byte:int -> Outcome.t;
      (** Conduct one experiment slot: {!field-inject} at the slot's
          canonical coordinate — a byte class's [t_end] (directly before
          the activating read, Figure 1b), a skip slot's own cycle —
          and {!Outcome.No_effect} for skip's padding slots.  Injection
          cycles are non-decreasing when classes are visited in [t_end]
          order with ascending slots. *)
}

val of_golden : model -> Golden.t -> cell
(** Analyse a memory-indexed model against an existing golden run.

    {!Bitflip_mem} and {!Burst} share the def/use partition (classes,
    weights and benign weight are identical — a burst only widens what
    flips {e inside} the addressed byte).  {!Skip} builds a synthetic
    partition over the cycle axis: class [i] covers cycles
    [8i+1 … 8i+8], encoded as [{byte = i; t_start = t_end = 8i+1}] so
    each slot's {!Defuse.weight}-derived experiment weight is 1 (every
    cycle is its own equivalence class — no pruning), and slot [s]
    injects at cycle [s + 1].  Trailing slots of the last class that
    fall beyond the golden runtime are conducted as {!Outcome.No_effect}
    without running the machine, and weigh 0 ([slots = Δt]), so the
    space is exactly [Δt] cycles.

    @raise Invalid_argument for {!Bitflip_reg} (use {!of_regspace}) or a
    malformed {!Burst}. *)

val of_regspace : Regspace.t -> cell
(** The {!Bitflip_reg} cell of an existing register analysis. *)

val analyse : ?limit:int -> model -> Program.t -> cell
(** Analyse from scratch: {!Golden.run} (plus {!Regspace.analyze} for
    {!Bitflip_reg}) and dispatch to {!of_golden}/{!of_regspace}. *)

val experiments : cell -> int
(** [8 × Array.length classes] — the campaign's experiment count. *)

val space : cell -> int
(** The model's fault-space size [Δt × rows], in coordinates: [Δt ×
    8·Δm] bit-cycles for {!Bitflip_mem} and {!Burst}, [Δt × 480] for
    {!Bitflip_reg}, [Δt] cycles for {!Skip}.  A lossless partition's
    experiment weights plus [benign_weight] sum to it. *)

val scan : ?variant:string -> ?provider:Injector.provider -> cell -> Scan.t
(** The serial reference campaign of every model, and the only serial
    scan: visit the classes in [t_end] order on one session over
    [provider], conduct their 8 slots each with {!field-conduct}
    ({!conduct_slots}) and assemble the result with {!Scan.of_outcomes}.
    The campaign engine is bit-identical to it for any worker count and
    backend.  [provider] defaults to a fresh checkpoint plan over
    [cell.golden] at {!Injector.default_stride}; pass
    [~provider:(Injector.replay cell.golden)] for the restart-from-reset
    reference the plan is checked against.  [variant] is the scan's
    label (default ["baseline"]).

    @raise Invalid_argument if [provider] was built over a different
    golden run. *)

val conduct_slots :
  ?provider:Injector.provider -> cell -> int array -> Outcome.t array
(** [conduct_slots cell slots] conducts each experiment slot [8 × class
    + bit] of [slots], in array order, on one session over [provider]
    (default as in {!scan}), and returns their outcomes in the same
    order.  The slots' canonical injection cycles must be non-decreasing
    ({!Injector.session_run_flip}); {!scan} and [Sampler.conduct] order
    them by [t_end].

    @raise Invalid_argument if [provider] was built over a different
    golden run. *)

val outcome_at : cell -> Scan.t -> Coordspace.coord -> Outcome.t
(** The outcome a finished scan of this cell implies at a raw
    coordinate: the experiment at its {!field-locate}d slot, or
    {!Outcome.No_effect} when it is a-priori benign — the pruned scan
    expanded over the raw space. *)

val brute_force : cell -> (Coordspace.coord * Outcome.t) array
(** One {!field-inject} per raw coordinate, cycle-major ([space cell]
    entries), on one replay session — the ground truth pruning is
    checked against: a lossless partition has [outcome_at cell scan
    coord] equal to it everywhere.  Costs [space cell] runs; only for
    small validation programs. *)
