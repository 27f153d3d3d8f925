(** The Poisson distribution, used by the paper (Section III-A, Table I)
    to argue that the probability of two or more independent faults
    hitting one benchmark run is negligible, so single-fault injection
    suffices. *)

val pmf : lambda:float -> int -> float
(** [pmf ~lambda k] is P_λ(k) = λᵏ e^{−λ} / k!, computed in log space so
    extreme parameters (λ ≈ 10⁻¹⁴ as in Table I) stay accurate.

    @raise Invalid_argument if [lambda < 0.] or [k < 0]. *)

val cdf : lambda:float -> int -> float
(** [cdf ~lambda k] is P(X ≤ k) via the regularised incomplete gamma
    function Q(k+1, λ). *)

val sample : Prng.t -> lambda:float -> int
(** Draw a Poisson variate (Knuth's product method for small λ, the PTRS
    transformed-rejection method is unnecessary at the λ used here and a
    simple inversion fallback handles λ up to ~700). *)
