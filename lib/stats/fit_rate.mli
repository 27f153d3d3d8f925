(** FIT-rate arithmetic (Section III-A of the paper).

    The FIT (Failures In Time) rate counts expected failures per 10⁹
    device-hours.  DRAM soft-error studies report FIT per Mbit; the paper
    averages three published rates and converts to a per-bit, per-
    nanosecond fault rate [g], then to the Poisson parameter
    λ = g·Δt·Δm of a benchmark run. *)

type t = private float
(** A rate in FIT per Mbit (failures per 10⁹ hours per 2²⁰... the paper
    uses Mbit = 10⁶ bit, which we follow). *)

val of_fit_per_mbit : float -> t
(** Wrap a published FIT/Mbit figure.

    @raise Invalid_argument on negative rates. *)

val to_float : t -> float
(** The underlying FIT/Mbit number. *)

val mean_published : t
(** The arithmetic mean of the three DRAM study rates cited by the
    paper — 0.061 (Sridharan & Liberty), 0.066 (Hwang et al.) and
    0.044 FIT/Mbit (the 2013 large-scale study) — 0.057 FIT/Mbit, as
    used in the paper. *)

val per_bit_per_ns : t -> float
(** [per_bit_per_ns r] is the fault rate g in 1/(ns·bit):
    g = r / (10⁹ h · 3600 s/h · 10⁹ ns/s · 10⁶ bit).
    For 0.057 FIT/Mbit this is ≈ 1.58·10⁻²⁹, which the paper rounds to
    1.6·10⁻²⁹. *)

val lambda : t -> cycles:int -> ns_per_cycle:float -> bits:int -> float
(** [lambda r ~cycles ~ns_per_cycle ~bits] is the Poisson parameter
    λ = g · (cycles · ns_per_cycle) · bits of a benchmark run occupying
    [bits] bits of RAM for [cycles] CPU cycles. *)
