(** The instruction set of the simulated RISC machine.

    The paper's machine model (Section II-C) is a simple in-order RISC CPU
    executing one instruction per cycle from fault-immune ROM, attached to
    wait-free main memory.  This ISA is deliberately small but complete
    enough to compile an operating-system kernel onto: 16 general-purpose
    32-bit registers, three-operand ALU instructions, byte and word
    loads/stores, compare-and-branch, and jump-and-link for calls.

    Register conventions used by the MIR compiler (the hardware does not
    enforce them):
    - [r0] always reads as zero; writes are ignored.
    - [r1]–[r9] expression temporaries / argument registers,
    - [r10]–[r12] callee-saved scratch,
    - [r13] stack pointer, [r14] frame pointer, [r15] link register. *)

type reg = R of int
(** A register index in [\[0, 15\]].  Use {!reg} to construct. *)

val reg : int -> reg
(** [reg i] is register [i].

    @raise Invalid_argument outside [\[0, 15\]]. *)

val reg_index : reg -> int
(** Underlying index. *)

val r0 : reg
val sp : reg
(** [r13], the conventional stack pointer. *)

val fp : reg
(** [r14], the conventional frame pointer. *)

val ra : reg
(** [r15], the conventional link register. *)

(** Arithmetic-logic operations, all on 32-bit two's-complement words. *)
type alu_op =
  | Add
  | Sub
  | Mul
  | Divu  (** Unsigned division; division by zero traps. *)
  | Remu  (** Unsigned remainder; division by zero traps. *)
  | And
  | Or
  | Xor
  | Shl   (** Shift left by [rs2 land 31]. *)
  | Shr   (** Logical shift right by [rs2 land 31]. *)
  | Sar   (** Arithmetic shift right by [rs2 land 31]. *)
  | Slt   (** Signed set-less-than: 1 or 0. *)
  | Sltu  (** Unsigned set-less-than: 1 or 0. *)

(** Branch conditions comparing two registers. *)
type cond =
  | Eq
  | Ne
  | Lt   (** Signed. *)
  | Ge   (** Signed. *)
  | Ltu
  | Geu

type instr =
  | Nop
  | Halt                                (** Stop the machine; normal exit. *)
  | Li of reg * int32                   (** [rd <- imm] (no memory access). *)
  | Alu of alu_op * reg * reg * reg     (** [rd <- rs1 op rs2]. *)
  | Alui of alu_op * reg * reg * int32  (** [rd <- rs1 op imm]. *)
  | Lb of reg * reg * int32             (** [rd <- zero_extend mem8(rs + off)]. *)
  | Lw of reg * reg * int32             (** [rd <- mem32(rs + off)]; must be 4-aligned. *)
  | Sb of reg * reg * int32             (** [mem8(rs + off) <- low byte of rd]. *)
  | Sw of reg * reg * int32             (** [mem32(rs + off) <- rd]; must be 4-aligned. *)
  | Beq of reg * reg * int * cond       (** [if rs1 cond rs2 then pc <- target]; the [int] is an absolute instruction index. *)
  | Jmp of int                          (** Unconditional jump to instruction index. *)
  | Jal of reg * int                    (** [rd <- pc + 1; pc <- target]. *)
  | Jr of reg                           (** [pc <- rd] (indirect jump / return). *)

val pp_reg : Format.formatter -> reg -> unit
(** Prints as [r4], or the aliases [sp]/[fp]/[ra]. *)

val pp_alu_op : Format.formatter -> alu_op -> unit
val pp_cond : Format.formatter -> cond -> unit

val pp_instr : Format.formatter -> instr -> unit
(** One-line assembly rendering, e.g. ["lw r3, 8(sp)"]. *)

val equal_instr : instr -> instr -> bool
(** Structural equality. *)

val is_load : instr -> bool
(** True for [Lb]/[Lw] — the "use"/"R" events of def/use analysis. *)

val is_store : instr -> bool
(** True for [Sb]/[Sw] — the "def"/"W" events of def/use analysis. *)

val branch_targets : instr -> int list
(** Instruction indices this instruction can jump to (empty for
    fall-through-only instructions). *)

val reg_uses_defs : instr -> int
(** The registers one instruction reads and writes, as one bitmask:
    bit [r] is set iff it reads register [r], bit [16 + r] iff it
    writes it; [r0] sets neither (it is hardwired to zero).  Within one
    cycle the reads happen before the write.  Allocation-free.  The
    golden run's register trace ({!Fi_campaign.Golden.registers}) is
    this mask per executed cycle; the register fault space
    ({!Fi_campaign.Regspace}) and the checkpoint plan's register
    live-in masks ({!Fi_campaign.Injector}) both read it. *)
