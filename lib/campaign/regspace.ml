let register_count = 15
let pseudo_ram_bytes = 4 * register_count

type t = { golden : Golden.t; reg_defuse : Defuse.t }

let coord_of_bit bit =
  let reg = 1 + (bit / 32) in
  (reg, bit mod 32)

(* Register [r] is the pseudo-memory word at byte [4 (r - 1)].  Each
   cycle's reads go in before its write: Defuse lets only a cycle's
   first access to a byte end a class, so a register read and written
   in one cycle ends an experiment class. *)
let of_golden golden =
  let trace = Trace.create ~ram_size:pseudo_ram_bytes in
  (* [bits]: bit 0 stands for register [r] *)
  let rec add ~cycle bits r kind =
    if bits <> 0 then begin
      if bits land 1 <> 0 then
        Trace.add trace ~cycle ~addr:(4 * (r - 1)) ~width:4 ~kind;
      add ~cycle (bits lsr 1) (r + 1) kind
    end
  in
  let registers = Golden.registers golden in
  for cycle = 1 to golden.Golden.cycles do
    let mask = Golden.uses_defs registers cycle in
    add ~cycle ((mask land 0xFFFF) lsr 1) 1 Trace.Read;
    add ~cycle (mask lsr 17) 1 Trace.Write
  done;
  Trace.seal trace ~total_cycles:golden.Golden.cycles;
  { golden; reg_defuse = Defuse.analyze trace }

let analyze ?limit program = of_golden (Golden.run ?limit program)
let classes t = Defuse.experiment_classes t.reg_defuse
