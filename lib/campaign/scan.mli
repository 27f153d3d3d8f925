(** Campaign execution: full fault-space scans.

    A {e pruned scan} conducts one experiment per def/use equivalence
    class and bit — everything a full fault-space scan can learn, at a
    tiny fraction of the cost (Section III-C).  The brute-force scan
    that checks it, one experiment per raw coordinate, is
    [Faultspace.brute_force], which knows every fault model's raw
    geometry. *)

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
(** Progress callback of the serial conduction loop ({!serial}):
    [done_] classes out of [total] are complete and [tally] carries the
    running outcome counts of all experiments conducted so far, called
    once per class in [t_end]-sorted rank order.  The tally is live —
    read it, don't keep it (use {!Outcome.tally_copy} to retain a
    snapshot).  The parallel engine does not use it: its one progress
    channel is [Engine.run_matrix_results ~observe]. *)

val conduct_at_t_end :
  (Injector.session -> Coordspace.coord -> Outcome.t) ->
  Injector.session ->
  Defuse.byte_class ->
  bit_in_byte:int ->
  Outcome.t
(** [conduct_at_t_end inject] conducts a byte-class slot as [inject] at
    its canonical coordinate: the class's [t_end], directly before the
    activating read (Figure 1b), row [8 × byte + bit_in_byte].  Every
    def/use-pruned model (memory, burst, registers) conducts its slots
    this way, serially and in the engine, which is what makes their
    results bit-identical.  Injection cycles must be presented in
    non-decreasing order per session ({!Injector.session_run_flip}). *)

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
