(** The register fault space — the Section VI-B extension of the paper.

    "Every bit in […] the CPU registers […] could be part of the fault
    space — requiring to also record read and write accesses to these
    bits for def/use pruning."  This module does exactly that: it reads
    the per-cycle register reads and writes of the golden run's register
    trace ({!Golden.registers}) and reuses the def/use machinery by
    mapping register [i] (1–15; [r0] is hardwired and immune) onto a
    60-byte pseudo-memory at bytes [4·(i−1) … 4·i) ({!coord_of_bit}
    inverts the layout).  The register
    cell of [Faultspace.of_golden Bitflip_reg] owns the space's geometry
    and injects its register-bit flips; campaigns run through it.

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
  reg_defuse : Defuse.t;
      (** Register def/use partition over the pseudo-memory. *)
}

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
