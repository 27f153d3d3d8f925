(** The binomial distribution.  The paper notes (Section III-A) that the
    number of faults hitting a run is binomial and is well approximated
    by the Poisson distribution at realistic soft-error rates; the test
    suite verifies that approximation numerically. *)

val log_choose : int -> int -> float
(** [log_choose n k] is ln (n choose k).

    @raise Invalid_argument if [k < 0], [n < 0] or [k > n]. *)

val pmf : n:int -> p:float -> int -> float
(** [pmf ~n ~p k] is P(X = k) for X ~ B(n, p), computed in log space. *)

val cdf : n:int -> p:float -> int -> float
(** [cdf ~n ~p k] is P(X ≤ k), via the regularised incomplete beta
    function. *)
