let register_count = 15
let pseudo_ram_bytes = 4 * register_count

type t = { golden : Golden.t; reg_defuse : Defuse.t }

let pseudo_addr r = 4 * (Isa.reg_index r - 1)

let coord_of_bit bit =
  let reg = 1 + (bit / 32) in
  (reg, bit mod 32)

let analyze ?limit program =
  let golden = Golden.run ?limit program in
  let trace = Trace.create ~ram_size:pseudo_ram_bytes in
  let exec_tracer ~cycle instr =
    let writes, reads = Isa.defs_uses instr in
    (* Reads happen before the write within the cycle; Defuse relies on
       that ordering for same-cycle read+write of one register. *)
    List.iter
      (fun r ->
        Trace.add trace ~cycle ~addr:(pseudo_addr r) ~width:4 ~kind:Trace.Read)
      reads;
    List.iter
      (fun r ->
        Trace.add trace ~cycle ~addr:(pseudo_addr r) ~width:4 ~kind:Trace.Write)
      writes
  in
  let machine = Machine.create ~exec_tracer program in
  (match Machine.run machine ~limit:(golden.Golden.cycles + 1) with
  | Machine.Halted -> ()
  | reason ->
      (* The machine is deterministic; a divergence here is a bug. *)
      invalid_arg
        (Format.asprintf "Regspace.analyze: register trace run stopped with %a"
           Machine.pp_stop_reason reason));
  Trace.seal trace ~total_cycles:golden.Golden.cycles;
  { golden; reg_defuse = Defuse.analyze trace }

let classes t = Defuse.experiment_classes t.reg_defuse
