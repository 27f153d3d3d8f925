(** Def/use fault-space pruning (Section III-C of the paper).

    The fault space of a run is the grid [cycles × memory bits].  All
    coordinates of one bit between two consecutive accesses are
    *equivalent*: a fault there is first activated (if ever) by the next
    read.  This module partitions the complete fault space of a sealed
    trace into equivalence classes:

    - a class whose interval ends in a {e read} requires one FI
      experiment, canonically injected at the read's cycle;
    - a class whose interval ends in a {e write} is a-priori benign (the
      fault is overwritten before activation);
    - the class after a bit's last access, and all classes of bits that
      are never accessed, are a-priori benign (dormant faults).

    The partition is exact: every coordinate belongs to exactly one class,
    and the sum of all class weights equals the fault-space size.  Both
    properties are enforced by the test suite against brute-force scans.

    Byte-granularity accesses mean all 8 bits of a byte share interval
    boundaries, so classes are stored per byte; an *experiment* is a
    (byte-class, bit-in-byte) pair because different bits of the same
    interval may produce different outcomes.

    An analysis builds each of its two parts on first use, once
    (domain-safe), and keeps it.  What a campaign reads
    ({!experiment_classes}, {!experiment_count}, {!known_benign_weight})
    takes two passes over the trace — count each byte's experiment
    classes and sum the benign weight, then write each experiment class
    into its slot — so the only allocations are the experiment class
    records and a few arrays sized by RAM and class count.  The
    complete partition ({!classes}, {!find}), benign classes included,
    takes the same two passes; only reports and lookups ask for it.  A
    campaign under a model that does not read memory def/use builds
    neither.  {!rank_by_t_end} is the one ranking of classes by
    injection cycle, shared by the serial scan and the engine's plan. *)

type class_kind =
  | Experiment  (** Interval ends in a read: outcome unknown, inject. *)
  | Overwritten (** Interval ends in a write: a-priori "No Effect". *)
  | Dormant     (** No further access: a-priori "No Effect". *)

val pp_class_kind : Format.formatter -> class_kind -> unit

type byte_class = {
  byte : int;  (** RAM byte offset. *)
  t_start : int;  (** First cycle of the interval (>= 1). *)
  t_end : int;  (** Last cycle; for [Experiment] this is the injection point (the read's cycle). *)
  kind : class_kind;
}

val weight : byte_class -> int
(** [t_end − t_start + 1]: the number of fault-space coordinates each bit
    of this class represents (the "data lifetime" of Pitfall 1). *)

type t
(** The complete partition for one golden run. *)

val analyze : Trace.t -> t
(** The def/use analysis of a sealed trace; its classes are built when
    first read.

    @raise Invalid_argument if the trace is not sealed. *)

val ram_size : t -> int
val total_cycles : t -> int

val fault_space_size : t -> int
(** [total_cycles × ram_size × 8] — the paper's [w] (in bit·cycles). *)

val classes : t -> byte_class array
(** All classes, sorted by [(byte, t_start)]. *)

val experiment_classes : t -> byte_class array
(** Only the [Experiment] classes, in the order of {!classes}.  The
    number of FI experiments needed for a full fault-space scan is
    [8 × Array.length] of this.  The array is the analysis's own: do
    not mutate it. *)

val experiment_count : t -> int
(** [8 ×] number of experiment byte-classes — what FAIL* would run. *)

val known_benign_weight : t -> int
(** Total fault-space coordinates (bit·cycles) covered by [Overwritten]
    and [Dormant] classes. *)

val find : t -> cycle:int -> byte:int -> byte_class
(** [find t ~cycle ~byte] is the unique class containing coordinate
    [(cycle, byte)] (any bit of the byte), by binary search.

    @raise Invalid_argument outside the fault space. *)

val rank_by_t_end : byte_class array -> int array
(** [rank_by_t_end classes] is the permutation of indices into
    [classes] that orders them by [t_end]: element [r] is the index of
    the class of rank [r].  It equals, ties included,
    [Array.sort (fun a b -> compare classes.(a).t_end classes.(b).t_end)]
    over [0 .. n-1] as the OCaml 5.1 stdlib implements it (a ternary
    heap sort, not stable), whose steps it repeats over packed
    [(t_end, index)] ints, with no allocation per step.  The order of
    ties is written into every journal and cache entry (see
    [Shard.plan]), so it is fixed here rather than left to the stdlib.

    @raise Invalid_argument if some [t_end] is negative or does not fit
    beside the index, i.e. [t_end >= 2{^(62 - ⌈log₂ n⌉)}] — more than
    2{^34} cycles even with 2{^28} classes. *)

val pruning_factor : t -> float
(** Raw fault-space size divided by the number of experiments — the
    efficiency of pruning (the paper reports 1.5·10⁸ → 19 553 for sync2,
    a factor of ≈ 7 700). *)
