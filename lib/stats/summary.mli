(** Streaming summary statistics (Welford's online algorithm), used by the
    benchmark harness to aggregate repeated measurements. *)

type t
(** Mutable accumulator. *)

val create : unit -> t
(** An empty accumulator. *)

val add : t -> float -> unit
(** Feed one observation. *)

val count : t -> int
(** Number of observations so far. *)

val mean : t -> float
(** Arithmetic mean; 0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two observations. *)

val min : t -> float
(** Smallest observation; [nan] when empty. *)

val max : t -> float
(** Largest observation; [nan] when empty. *)

val of_array : float array -> t
(** Accumulator over a whole array. *)
