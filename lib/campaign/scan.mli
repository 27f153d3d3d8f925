(** Campaign execution: full fault-space scans.

    A {e pruned scan} conducts one experiment per def/use equivalence
    class and bit — everything a full fault-space scan can learn, at a
    tiny fraction of the cost (Section III-C).  A {e brute-force scan}
    conducts one experiment per raw fault-space coordinate; it exists to
    validate pruning losslessly on small programs and as the ground truth
    for the "Hi" Gedankenexperiment of Section IV. *)

type experiment = {
  byte : int;  (** RAM byte offset of the class. *)
  t_start : int;  (** First cycle of the class interval. *)
  t_end : int;  (** Last cycle — also the canonical injection cycle. *)
  bit_in_byte : int;  (** 0–7. *)
  outcome : Outcome.t;
}

val experiment_weight : experiment -> int
(** Equivalence-class size [t_end − t_start + 1] — the weight Pitfall 1
    requires each result to carry. *)

type t = {
  name : string;  (** Program name. *)
  variant : string;  (** e.g. ["baseline"] or ["sum+dmr"]. *)
  cycles : int;  (** Benchmark runtime Δt. *)
  ram_bytes : int;  (** Benchmark memory usage Δm in bytes. *)
  experiments : experiment array;  (** All conducted experiments. *)
  benign_weight : int;
      (** Fault-space coordinates (bit·cycles) known a-priori benign
          (overwritten or dormant), {e not} conducted. *)
}

val fault_space_size : t -> int
(** w, the fault-space coordinates the scan accounts for: the sum of
    all experiment weights plus [benign_weight].  For a lossless
    partition this is the fault model's space size
    ([Faultspace.cell.space]): Δt × 8·Δm bit-cycles for the memory
    models, Δt × 480 for registers, Δt cycles for instruction skip
    (invariant, tested for every model). *)

type progress = done_:int -> total:int -> tally:Outcome.tally -> unit
(** Campaign progress callback, shared by every campaign conductor
    (the serial {!serial} loop and the parallel [Fi_engine.Engine]):
    [done_] classes out of [total] are complete and [tally] carries the
    running outcome counts of all experiments conducted so far.  The
    tally is live — read it, don't keep it (use {!Outcome.tally_copy} to
    retain a snapshot).  Serial conductors call it once per class in
    t_end-sorted rank order; the parallel engine calls it in completion
    order (still monotonic in [done_]). *)

val no_progress : progress
(** The silent callback (default). *)

val conduct_class :
  Injector.session -> Defuse.byte_class -> bit_in_byte:int -> Outcome.t
(** Conduct the canonical memory-space experiment of one
    (byte-class, bit) pair on an injection session — the single-
    experiment kernel shared by the serial {!pruned} and the parallel
    engine (which is what makes their results bit-identical).  Injection
    cycles must be presented in non-decreasing order per session
    ({!Injector.session_run_at}). *)

val provider_for : Golden.t -> Injector.provider option -> Injector.provider
(** [provider_for golden p] is [p] checked against [golden], or a fresh
    checkpoint plan over [golden] when [p] is [None] — the provider
    default of every serial conductor.

    @raise Invalid_argument if [p] was built over a different golden
    run. *)

val of_outcomes :
  variant:string ->
  ram_bytes:int ->
  benign_weight:int ->
  ?slots:int ->
  Golden.t ->
  Defuse.byte_class array ->
  Outcome.t array ->
  t
(** Assemble a scan from per-slot outcomes indexed [8 × class + bit]:
    experiment [i] takes class [i / 8]'s coordinates and slot [i mod 8].
    Slots from index [slots] on (default: none) are padding that stands
    for no fault-space coordinate: their interval is empty
    ([t_end = t_start − 1]), so they weigh 0.
    The serial loop ({!serial}) and the parallel engine both build their
    results here, so their scans are structurally equal. *)

val serial :
  ?variant:string ->
  ?provider:Injector.provider ->
  ?progress:progress ->
  ram_bytes:int ->
  benign_weight:int ->
  ?slots:int ->
  conduct:
    (Injector.session -> Defuse.byte_class -> bit_in_byte:int -> Outcome.t) ->
  Golden.t ->
  Defuse.byte_class array ->
  t
(** The serial conduction loop behind every fault model: visit [classes]
    in [t_end] order on one session over [provider] (default
    {!provider_for}[ golden None]), conduct 8 slots per class with
    [conduct], call [progress] after each class and assemble the result
    with {!of_outcomes}.  {!pruned}, {!Regspace.scan} and
    [Faultspace.scan] are thin callers.

    @raise Invalid_argument if [provider] was built over a different
    golden run. *)

val pruned :
  ?variant:string ->
  ?provider:Injector.provider ->
  ?progress:progress ->
  Golden.t ->
  t
(** [pruned golden] runs the complete pruned campaign: one experiment per
    (experiment-class, bit), conducted through [provider] (default: a
    fresh checkpoint plan at {!Injector.default_stride} — pass
    {!Injector.replay} for the reference restart semantics; outcomes are
    bit-identical either way).  [progress] is called after every class.

    @raise Invalid_argument if [provider] was built over a different
    golden run. *)

val brute_force :
  ?variant:string -> Golden.t -> (Coordspace.coord * Outcome.t) array
(** One experiment per raw coordinate, cycle-major.  Cost is
    [w] full machine runs — only for tiny validation programs. *)

val outcome_at : t -> Coordspace.coord -> Outcome.t
(** Expand pruned results back over the raw fault space: the outcome at
    any coordinate (a-priori-benign coordinates yield [No_effect]).
    Builds a lookup table on first use per call — for repeated queries use
    {!expander}. *)

val expander : t -> Coordspace.coord -> Outcome.t
(** Pre-indexed version of {!outcome_at} for bulk queries. *)
