(** Generators for every table and figure of the paper.

    Each function renders one artifact as plain text; the benchmark
    harness ([bench/main.exe]) and the CLI ([fi-cli report]) both drive
    these.  Campaign-backed artifacts take the scans as input; the
    callers obtain them from the campaign engine. *)

val table1 : unit -> string
(** Table I: Poisson probabilities for k = 0…5 independent faults hitting
    one benchmark run (Δt = 10⁹ cycles at 1 GHz, Δm = 2²⁰ bit,
    g = mean of the three published DRAM rates). *)

val figure1 : unit -> string
(** Figure 1: the illustrative fault space (a store at cycle 4, a load at
    cycle 11, twelve cycles total) before/after def/use pruning, with the
    class inventory and the 108-coordinates-to-8-experiments reduction
    (our byte-granular machine tracks 2 bytes ⇒ 192 coordinates, 8
    experiments, same structure). *)

val figure3 : unit -> string
(** Figure 3 and the Section IV numbers: full fault-space scans of the
    "Hi" program and its DFT/DFT′/memory-diluted variants; outcome maps;
    fault coverage inflating 62.5 % → 75.0 % while F stays 48. *)

val figure2 : (string * Scan.t * Scan.t) list -> string
(** Figure 2, all panels the paper's text references, from the given
    [(benchmark, baseline scan, hardened scan)] list:
    (a) unweighted coverage, (b) weighted coverage, (d) unweighted
    failure counts, (e) weighted failure counts, (g) runtime and memory
    usage — plus the comparison ratios r and the per-pair pitfall-3
    verdicts. *)

val pruning_stats : (string * Golden.t) list -> string
(** Section III-C: raw fault-space size vs. pruned experiment count and
    the reduction factor, per benchmark. *)

val pitfall2 :
  ?samples:int -> ?seed:int64 -> Faultspace.cell * Scan.t -> string
(** Pitfall 2 demonstration on one fully-scanned memory cell: ground-truth
    failure fraction vs. correct raw-space sampling vs. biased per-class
    sampling, at increasing sample counts (default max [samples] 4096).
    Every draw is read from the scan ({!Sampler.read}). *)

val pitfall3_extrapolation :
  ?samples:int ->
  ?seed:int64 ->
  (string * (Faultspace.cell * Scan.t)) list ->
  string
(** Pitfall 3, corollary 2: raw sampled failure counts vs. extrapolated
    counts across variants with different fault-space sizes, showing the
    raw counts inverting the verdict.  Each named cell's draw is read
    from its scan. *)

val ablation : (string * Scan.t) list -> string
(** Extension table: any set of scans compared by weighted/unweighted
    coverage, failure count, failure probability (Equation 5) and MWTF. *)

val figure2_sampled :
  ?samples:int ->
  ?seed:int64 ->
  (string * (Faultspace.cell * Scan.t) * (Faultspace.cell * Scan.t)) list ->
  string
(** Figure 2(e) as most published studies would obtain it — by sampling
    rather than full scans: extrapolated failure counts with 95 % Wilson
    intervals, next to the full-scan truth, from [(benchmark, baseline,
    SUM+DMR)] cells and their scans.  Each draw is read from its scan;
    the [conducted] column is the draw's {!Sampler.estimate.distinct}
    slots, the experiments a sampling campaign would conduct.
    Demonstrates that the correct sampling procedure reaches the paper's
    conclusions at a fraction of the experiment count. *)

val breakdown : Scan.t -> Program.t -> string
(** Table rendering of {!Breakdown.by_region}: where the failure mass
    lives (per global, plus the stack). *)

val cross_layer : (string * Golden.t) list -> string
(** Section VI-B/VI-C extension: for each benchmark's golden run, full
    campaigns over {e both} of its fault spaces — main memory and the
    register file — showing that coverage percentages across layers
    (different w!) are incomparable while per-layer absolute failure
    counts remain meaningful. *)
