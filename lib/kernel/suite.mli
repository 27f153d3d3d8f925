(** The benchmark suite: every program/variant pair used by tests,
    examples and the benchmark harness. *)

type variant = Baseline | Sum_dmr | Tmr

val variant_name : variant -> string
(** ["baseline"], ["sum+dmr"], ["tmr"]. *)

type entry = {
  benchmark : string;  (** e.g. ["bin_sem2"]. *)
  variant : variant;
  build : unit -> Program.t;  (** Compile the image. *)
}

val all : entry list
(** The kernel benchmarks × variants — the five OS-object kernels
    (bin_sem2, sync2, mutex1, flag1, mbox1) plus the two compute
    kernels (sort, crc), each as baseline / SUM+DMR / TMR. *)

val paper_pairs : (string * (unit -> Program.t) * (unit -> Program.t)) list
(** The paper's Figure 2 pairs: (name, baseline, SUM+DMR) for bin_sem2
    and sync2. *)

val find : benchmark:string -> variant:variant -> entry option

val spec_of :
  ?model:Faultspace.model -> ?policy:Spec.policy -> entry -> Spec.t
(** Campaign spec for one suite cell (default
    [Faultspace.Bitflip_mem]; pass any other {!Faultspace.model} for
    its space).  The spec's variant is {!variant_name}[ entry.variant]
    under every model. *)

val spec_matrix :
  ?model:Faultspace.model -> ?policy:Spec.policy -> unit -> Spec.t list
(** One spec per {!all} cell, ready for [Engine.run_matrix_results]. *)

val paper_specs :
  ?model:Faultspace.model -> ?policy:Spec.policy -> unit -> Spec.t list
(** The {!paper_pairs} matrix flattened to specs (baseline and SUM+DMR
    cells for bin_sem2 and sync2) — the cells behind Figure 2, the
    [--pairs] matrix of [fi-cli] and the repository benchmark's
    paper-fig2 workload. *)
