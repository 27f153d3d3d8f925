(** Sharding a campaign's experiment classes into cycle-contiguous work
    units.

    A pruned campaign conducts one experiment per (experiment-class, bit)
    — whether the classes partition main memory (def/use pruning of
    {!Golden.t}) or the register file's pseudo-memory ({!Regspace.t}).
    The fast {!Injector.Checkpoint} strategy requires injection cycles to
    be non-decreasing {e within one session}, so the class list is first
    ranked by canonical injection cycle ([t_end]) — exactly as the serial
    conductors do — and then cut into contiguous rank intervals
    ({e shards}).  Each shard satisfies the monotonicity invariant on its
    own and can therefore run on its own checkpoint session, on any
    worker, in any order.

    The plan is a pure function of the class list, the shard size and the
    sizing policy — never of the worker count — so one journal written at
    [-j 8] can be resumed at [-j 1] and vice versa.  The sizing policy is
    part of the plan (and of the engine's journal fingerprint): two plans
    over the same classes with different policies are different
    campaigns. *)

type sizing =
  | By_count  (** Cut every [shard_size] classes (the default). *)
  | By_weight
      (** Cut by estimated conducted cycles ([t_end]-weighted), targeting
          the shard count the count-based policy would produce.  Evens
          out tail latency on campaigns whose injection cycles span
          orders of magnitude. *)

val sizing_tag : sizing -> string
(** ["count"] / ["weight"] — the tag recorded in journal headers. *)

type t = {
  id : int;  (** Dense shard index, [0 .. shards-1]. *)
  lo : int;  (** First rank (inclusive) in the t_end-sorted order. *)
  hi : int;  (** Last rank (exclusive). *)
}

type plan = {
  order : int array;
      (** [order.(rank)] is the experiment-class index (into the class
          array given to {!plan}) of the class with the [rank]-th
          smallest injection cycle. *)
  shards : t array;  (** Contiguous, in rank order, covering all ranks. *)
  shard_size : int;
      (** Nominal classes per shard.  Under [By_count] every shard except
          the last has exactly this many classes; under [By_weight] it
          only determines the target shard count. *)
  sizing : sizing;
  classes_total : int;
}

val classes_in : t -> int
(** Number of experiment classes in a shard ([hi - lo]). *)

val default_shard_size : classes:int -> int
(** Granularity heuristic: about 128 shards, at least 1 class each —
    fine-grained enough to balance any realistic worker count, coarse
    enough that per-shard session and journal overhead stay negligible. *)

val plan : ?shard_size:int -> ?weighted:bool -> Defuse.byte_class array -> plan
(** Rank the given experiment classes by [t_end] and cut them into
    shards — of [shard_size] classes each by default, or by estimated
    conducted cycles with [~weighted:true] ({!By_weight}).

    The order is {!Defuse.rank_by_t_end}, the ranking the serial
    [Faultspace.scan] uses too.  That is the in-repository copy of the
    OCaml 5.1 stdlib heap sort, so the rank of classes with equal
    [t_end] is its permutation, and it must never change: it is part of
    every stored campaign.  A journal record holds its outcome
    characters in rank order, and the campaign fingerprint does not
    cover that order, so a plan that broke ties differently would replay
    existing journals and cache entries into the wrong class slots,
    without any error.  Keeping the sort in the repository also keeps
    the order from following a future stdlib's [Array.sort].  The test
    "campaign identity is pinned" (test_engine) guards the order.

    @raise Invalid_argument if [shard_size < 1]. *)
