type reg = R of int

let reg i =
  if i < 0 || i > 15 then invalid_arg "Isa.reg: index outside [0,15]";
  R i

let reg_index (R i) = i
let r0 = R 0
let sp = R 13
let fp = R 14
let ra = R 15

type alu_op =
  | Add
  | Sub
  | Mul
  | Divu
  | Remu
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Sar
  | Slt
  | Sltu

type cond = Eq | Ne | Lt | Ge | Ltu | Geu

type instr =
  | Nop
  | Halt
  | Li of reg * int32
  | Alu of alu_op * reg * reg * reg
  | Alui of alu_op * reg * reg * int32
  | Lb of reg * reg * int32
  | Lw of reg * reg * int32
  | Sb of reg * reg * int32
  | Sw of reg * reg * int32
  | Beq of reg * reg * int * cond
  | Jmp of int
  | Jal of reg * int
  | Jr of reg

let pp_reg ppf (R i) =
  match i with
  | 13 -> Format.pp_print_string ppf "sp"
  | 14 -> Format.pp_print_string ppf "fp"
  | 15 -> Format.pp_print_string ppf "ra"
  | i -> Format.fprintf ppf "r%d" i

let alu_op_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Divu -> "divu"
  | Remu -> "remu"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sar -> "sar"
  | Slt -> "slt"
  | Sltu -> "sltu"

let cond_name = function
  | Eq -> "beq"
  | Ne -> "bne"
  | Lt -> "blt"
  | Ge -> "bge"
  | Ltu -> "bltu"
  | Geu -> "bgeu"

let pp_alu_op ppf op = Format.pp_print_string ppf (alu_op_name op)
let pp_cond ppf c = Format.pp_print_string ppf (cond_name c)

let pp_instr ppf = function
  | Nop -> Format.pp_print_string ppf "nop"
  | Halt -> Format.pp_print_string ppf "halt"
  | Li (rd, imm) -> Format.fprintf ppf "li %a, %ld" pp_reg rd imm
  | Alu (op, rd, rs1, rs2) ->
      Format.fprintf ppf "%s %a, %a, %a" (alu_op_name op) pp_reg rd pp_reg rs1
        pp_reg rs2
  | Alui (op, rd, rs1, imm) ->
      Format.fprintf ppf "%si %a, %a, %ld" (alu_op_name op) pp_reg rd pp_reg
        rs1 imm
  | Lb (rd, rs, off) -> Format.fprintf ppf "lb %a, %ld(%a)" pp_reg rd off pp_reg rs
  | Lw (rd, rs, off) -> Format.fprintf ppf "lw %a, %ld(%a)" pp_reg rd off pp_reg rs
  | Sb (rd, rs, off) -> Format.fprintf ppf "sb %a, %ld(%a)" pp_reg rd off pp_reg rs
  | Sw (rd, rs, off) -> Format.fprintf ppf "sw %a, %ld(%a)" pp_reg rd off pp_reg rs
  | Beq (rs1, rs2, target, c) ->
      Format.fprintf ppf "%s %a, %a, %d" (cond_name c) pp_reg rs1 pp_reg rs2
        target
  | Jmp target -> Format.fprintf ppf "jmp %d" target
  | Jal (rd, target) -> Format.fprintf ppf "jal %a, %d" pp_reg rd target
  | Jr rs -> Format.fprintf ppf "jr %a" pp_reg rs

let equal_instr (a : instr) (b : instr) = a = b

let is_load = function Lb _ | Lw _ -> true | _ -> false
let is_store = function Sb _ | Sw _ -> true | _ -> false

let branch_targets = function
  | Beq (_, _, t, _) -> [ t ]
  | Jmp t | Jal (_, t) -> [ t ]
  | Nop | Halt | Li _ | Alu _ | Alui _ | Lb _ | Lw _ | Sb _ | Sw _ | Jr _ -> []

(* Bit [r] for a read of register [r], bit [16 + r] for a write; [r0]
   is hardwired to zero, so it sets neither. *)
let use (R i) = (1 lsl i) land 0xFFFE
let def (R i) = (1 lsl (16 + i)) land 0xFFFE_0000

let reg_uses_defs = function
  | Nop | Halt | Jmp _ -> 0
  | Li (rd, _) | Jal (rd, _) -> def rd
  | Alu (_, rd, rs1, rs2) -> def rd lor use rs1 lor use rs2
  | Alui (_, rd, rs1, _) | Lb (rd, rs1, _) | Lw (rd, rs1, _) ->
      def rd lor use rs1
  | Sb (rv, rs, _) | Sw (rv, rs, _) -> use rv lor use rs
  | Beq (rs1, rs2, _, _) -> use rs1 lor use rs2
  | Jr rs -> use rs
