(** Differential-hardening driver: the fuzzer's oracle.

    One generated program is compiled as a baseline and under a set of
    hardening {!variant}s (the paper's SUM+DMR and TMR passes, plus the
    Section-IV DFT dilution), full pruned campaigns are conducted per
    cell, and cells where fault coverage {e improves} while the weighted
    absolute failure count {e rises} — the dilution delusion, the
    sharpest form of the paper's Pitfall 3 — are flagged as
    {!finding}s.  The predicate ({!is_dilution}) is decided on exact
    integers, so a finding replays bit-identically on every backend and
    host. *)

type variant =
  | Sum_dmr  (** {!Harden.sum_dmr}: replica + additive checksum. *)
  | Tmr  (** {!Harden.tmr}: two replicas, majority vote. *)
  | Dft of int  (** {!Transform.dilute_nops}: [n] NOP cycles prepended. *)

val variant_to_string : variant -> string
(** ["sumdmr"], ["tmr"], ["dft:N"]; inverse of {!variant_of_string}. *)

val variant_of_string : string -> (variant, string) result

val default_variants : variant list
(** [[Sum_dmr; Tmr; Dft 4; Dft 16]]. *)

val compile_baseline : Mir.prog -> Program.t
val compile_variant : variant -> Mir.prog -> Program.t

type tally = {
  space : int;  (** w — the full-space denominator N. *)
  failures : int;  (** Weighted F. *)
  histogram : (Outcome.t * int) list;
      (** Weighted full-space outcome totals; sums to [space]. *)
}

val is_dilution : baseline:tally -> tally -> bool
(** [F_h > F_b] and [F_h·w_b < F_b·w_h]: failures strictly rise while
    coverage [1 − F/w] strictly improves.  The coverage comparison is an
    integer cross-multiplication, so the verdict is identical on every
    host and never flips on a rounding boundary. *)

type finding = {
  program : Mir.prog;
  seed : int64;
      (** The per-program seed: [Gen.program (Prng.create ~seed)]
          reproduces the {e unshrunk} ancestor of [program]. *)
  variant : variant;
  baseline : tally;
  hardened : tally;
  sampled_failure_ratio : float option;
      (** When the hunt sampled: extrapolated-F ratio hardened/baseline
          from {!Sampler.uniform_raw} draws {!Sampler.read} from the
          conducted scans (diagnostic only — the predicate always uses
          the exact tallies). *)
}

val evaluate :
  ?limit:int -> variant:variant -> Mir.prog -> (tally * tally) option
(** Serial predicate evaluation: compile baseline and variant, golden-run
    both, conduct full pruned campaigns ({!Faultspace.scan} —
    bit-identical to any engine backend), return both tallies.  [None] when the
    program is rejected by {!Check}, fails to assemble, or either golden
    run does not halt (shrink candidates routinely trip these). *)

val hunt_program :
  ?backend:Pool.backend ->
  ?jobs:int ->
  ?secret:string ->
  ?variants:variant list ->
  ?samples:int ->
  seed:int64 ->
  Mir.prog ->
  finding list
(** Golden-run and analyse baseline plus every variant cell once,
    conduct them through one {!Engine.run_matrix_results} call on the
    chosen backend ([secret] arms its handshakes, as there) and return
    the cells that exhibit the dilution
    delusion.  With [samples] set, each finding's two conducted scans
    are additionally sampled by {!Sampler.uniform_raw} (from
    [Prng.create ~seed], located in the cells' own geometry) and
    {!Sampler.read}, and findings carry the sampled extrapolation
    ratio. *)

val shrink : ?budget:int -> finding -> finding
(** Greedy QCheck-style minimisation: repeatedly take the first
    {!Gen.shrink} candidate on which the dilution predicate still holds
    (re-evaluated from scratch via {!evaluate} — every accepted step is
    a fresh pair of campaigns), until no candidate survives or [budget]
    evaluations (default 200) are spent.  The returned finding's
    tallies are those of the minimised program. *)

val verify :
  ?backend:Pool.backend ->
  ?jobs:int ->
  ?secret:string ->
  finding ->
  (unit, string) result
(** Re-establish a finding end to end on a fresh engine: recompile both
    cells, conduct them through one {!Engine.run_matrix_results} call on
    [backend] (with [secret], as {!hunt_program}), and require the
    resulting tallies to equal the finding's {e exactly}
    (histograms included) with the predicate holding.  This is the
    bit-identical replay check the corpus and CI lean on. *)

type hunt = {
  tried : int;  (** Programs generated and evaluated. *)
  findings : finding list;  (** Shrunk and verified, in discovery order. *)
}

val run :
  ?cfg:Gen.cfg ->
  ?backend:Pool.backend ->
  ?jobs:int ->
  ?secret:string ->
  ?variants:variant list ->
  ?samples:int ->
  ?shrink_budget:int ->
  ?log:(string -> unit) ->
  seed:int64 ->
  budget:int ->
  unit ->
  hunt
(** The full mining loop: [budget] programs are drawn from a master
    {!Prng} stream seeded with [seed] (each program's own seed is one
    [next_int64] draw, recorded in its findings), hunted, shrunk, and
    re-verified through a fresh engine.  [log] receives one line per
    program and finding. *)
