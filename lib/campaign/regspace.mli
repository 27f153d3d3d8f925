(** The register fault space — the Section VI-B extension of the paper.

    "Every bit in […] the CPU registers […] could be part of the fault
    space — requiring to also record read and write accesses to these
    bits for def/use pruning."  This module does exactly that: it derives
    per-cycle register def/use sets from the executed instruction stream,
    reuses the def/use machinery by mapping register [i] (1–15; [r0] is
    hardwired and immune) onto a 60-byte pseudo-memory at bytes
    [4·(i−1) … 4·i), and injects register-bit flips ({!inject}).
    Campaigns run through the register cell of [Faultspace.of_regspace].

    The resulting {!Scan.t} is fully compatible with the metrics layer,
    so fault coverage, weighted failure counts and the pitfall analyses
    apply unchanged — which is how the [registers] bench artifact
    demonstrates the paper's Section VI-C warning about comparing
    coverage across layers with different fault-space sizes. *)

val register_count : int
(** 15 — registers [r1]–[r15]. *)

val pseudo_ram_bytes : int
(** 60 — the pseudo-memory footprint (4 bytes per register). *)

val defs_uses : Isa.instr -> Isa.reg list * Isa.reg list
(** [(writes, reads)] of one instruction, [r0] excluded from both
    (an alias of {!Isa.defs_uses}, kept here for discoverability). *)

type t = {
  golden : Golden.t;
      (** The memory-space golden run of the same program (output,
          runtime, RAM def/use) — shared by both layers. *)
  reg_defuse : Defuse.t;
      (** Register def/use partition over the pseudo-memory. *)
}

val analyze : ?limit:int -> Program.t -> t
(** Run the program twice (deterministically identical): once for the
    memory-space golden, once tracing register accesses. *)

val fault_space_size : t -> int
(** Δt × 480 — the register-layer [w]. *)

val classes : t -> Defuse.byte_class array
(** The register-space experiment classes over the pseudo-memory —
    the class provider the campaign engine shards exactly like a memory
    campaign's (same [t_end]-contiguity invariant: {!inject} uses
    {!Injector.session_run_flip}, whose cycles must be non-decreasing
    per session). *)

val inject : Injector.session -> Coordspace.coord -> Outcome.t
(** Flip pseudo-memory bit [bit] (register {!coord_of_bit}[ bit])
    immediately before [cycle] on the session's machine and classify the
    run — the register space's per-coordinate experiment, [0 <= bit <
    480].  Cycles must be non-decreasing per session. *)

val coord_of_bit : int -> int * int
(** Map a pseudo-memory bit index to [(register, bit-in-register)]. *)
