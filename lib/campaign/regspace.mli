(** The register fault space — the Section VI-B extension of the paper.

    "Every bit in […] the CPU registers […] could be part of the fault
    space — requiring to also record read and write accesses to these
    bits for def/use pruning."  This module does exactly that, from the
    per-cycle register reads and writes of the golden run's register
    trace ({!Golden.registers}).  Register [i] (1–15; [r0] is hardwired
    and immune) is laid out as a 60-byte pseudo-memory at bytes
    [4·(i−1) … 4·i) ({!coord_of_bit} inverts the layout), and its
    def/use intervals are given in {!Defuse}'s terms: byte classes, 8
    experiment slots each, as journals and fingerprints record them.
    The register cell of [Faultspace.of_golden Bitflip_reg] owns the
    space's geometry and injects its register-bit flips; campaigns run
    through it.

    The resulting {!Scan.t} is fully compatible with the metrics layer,
    so fault coverage, weighted failure counts and the pitfall analyses
    apply unchanged — which is how the [registers] bench artifact
    demonstrates the paper's Section VI-C warning about comparing
    coverage across layers with different fault-space sizes. *)

val pseudo_ram_bytes : int
(** 60 — the pseudo-memory footprint (4 bytes per register). *)

type t = {
  golden : Golden.t;
      (** The memory-space golden run of the same program (output,
          runtime, RAM def/use) — shared by both layers. *)
  classes : Defuse.byte_class array;
      (** The experiment classes of the register def/use partition, in
          (byte, t_start) order: an interval of register [r] that ends
          in a read is the four byte classes [4 (r−1) … 4 (r−1) + 3]. *)
  benign_weight : int;
      (** Bit·cycles of the a-priori benign intervals: those ending in
          a write, the dormant tails and the registers never touched. *)
}

val partition : cycles:int -> Bytes.t -> Defuse.byte_class array * int
(** [partition ~cycles registers] is the experiment classes and benign
    weight of a [cycles]-cycle register trace in the format of
    {!Golden.registers}, in two passes over it: one counts each
    register's experiments, one writes them.  No pseudo-memory trace
    is built.  It equals {!Defuse.analyze} over the pseudo-memory trace
    that makes each register read and write a 4-byte access (a cycle's
    reads before its write, so a register read and written in one
    cycle ends an experiment): the same classes in the same order,
    and the same benign weight.  Bits for [r0] are ignored. *)

val of_golden : Golden.t -> t
(** The register partition of a golden run, from its shared register
    trace ({!Golden.registers}): the program does not run again when
    that trace is already recorded, and a checkpoint ladder over the
    same golden run reuses it. *)

val analyze : ?limit:int -> Program.t -> t
(** [of_golden (Golden.run ?limit program)].  Kept for the repository
    benchmark, which builds its register sources with it; campaigns
    analyse through [Faultspace.analyse Bitflip_reg]. *)

val coord_of_bit : int -> int * int
(** Map a pseudo-memory bit index [0 <= bit < 480] to [(register,
    bit-in-register)]: bit [b] is bit [b mod 32] of register
    [1 + b / 32], the inverse of the pseudo-memory layout. *)
