(** The result of a full fault-space scan.

    A {e pruned scan} holds one experiment per def/use equivalence class
    and bit — everything a full fault-space scan can learn, at a tiny
    fraction of the cost (Section III-C).  This module is the result type
    only: [Faultspace.scan] is the serial reference that conducts one,
    the campaign engine the parallel one, and [Faultspace.brute_force]
    the one-experiment-per-raw-coordinate sweep that checks pruning. *)

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
    ([Faultspace.space]): Δt × 8·Δm bit-cycles for the memory
    models, Δt × 480 for registers, Δt cycles for instruction skip
    (invariant, tested for every model). *)

val of_outcomes :
  variant:string ->
  ram_bytes:int ->
  benign_weight:int ->
  ?slots:int ->
  Golden.t ->
  Defuse.byte_class array ->
  Bytes.t ->
  t
(** Assemble a scan from per-slot outcomes indexed [8 × class + bit],
    held as their journal characters ({!Outcome.to_char}): experiment
    [i] takes class [i / 8]'s coordinates and the outcome of character
    [i].  One byte per slot is what the engine keeps while a campaign
    runs: a record's characters are copied in, never decoded twice.
    Slots from index [slots] on (default: none) are padding that stands
    for no fault-space coordinate: their interval is empty
    ([t_end = t_start − 1]), so they weigh 0.
    The serial reference ([Faultspace.scan]) and the parallel engine
    both build their results here, so their scans are structurally
    equal.

    @raise Invalid_argument unless there are [8 × Array.length classes]
    characters, each an outcome's. *)
