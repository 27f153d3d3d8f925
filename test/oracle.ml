(* The list-based register and live-in analyses the linear sweeps
   replaced, kept as oracles for them: per-instruction register lists,
   per-location cons lists of accesses sorted with reads first within a
   cycle, and the register fault space as the byte-granular def/use
   partition of a pseudo-memory, from a second, traced run of the
   program or from a register trace. *)

(* [(writes, reads)] of one instruction, [r0] excluded from both. *)
let defs_uses instr =
  let writes, reads =
    match (instr : Isa.instr) with
    | Nop | Halt -> ([], [])
    | Li (rd, _) -> ([ rd ], [])
    | Alu (_, rd, rs1, rs2) -> ([ rd ], [ rs1; rs2 ])
    | Alui (_, rd, rs1, _) -> ([ rd ], [ rs1 ])
    | Lb (rd, rs, _) | Lw (rd, rs, _) -> ([ rd ], [ rs ])
    | Sb (rv, rs, _) | Sw (rv, rs, _) -> ([], [ rv; rs ])
    | Beq (rs1, rs2, _, _) -> ([], [ rs1; rs2 ])
    | Jmp _ -> ([], [])
    | Jal (rd, _) -> ([ rd ], [])
    | Jr rs -> ([], [ rs ])
  in
  let non_zero r = Isa.reg_index r <> 0 in
  (List.filter non_zero writes, List.filter non_zero reads)

(* Walk one location's chronological access list ([(cycle, is_read)],
   reads before writes within a cycle) against the ascending rung
   cycles: the location is live-in at rung [i] iff its first access
   after it is a read. *)
let fold_live_in ~rungs accesses ~live =
  let nl = Array.length rungs in
  let rec fill i accesses =
    if i < nl then
      match accesses with
      | [] -> ()
      | (a, is_read) :: rest ->
          if a <= rungs.(i) then fill i rest
          else begin
            if is_read then live i;
            fill (i + 1) accesses
          end
  in
  fill 0 accesses

(* Per-location access lists [(cycle, is_read)], chronological with
   reads first within a cycle, from RAM accesses
   [(cycle, addr, width, is_read)] and register accesses
   [(cycle, reg, is_read)] in any order within a cycle. *)
type accesses = {
  ram : (int * bool) list array;
  regs : (int * bool) list array;
}

let accesses ~ram_size ram_accesses reg_accesses =
  let ram = Array.make ram_size [] and regs = Array.make 16 [] in
  List.iter
    (fun (cycle, addr, width, is_read) ->
      for b = addr to addr + width - 1 do
        ram.(b) <- (cycle, is_read) :: ram.(b)
      done)
    ram_accesses;
  List.iter
    (fun (cycle, r, is_read) -> regs.(r) <- (cycle, is_read) :: regs.(r))
    reg_accesses;
  let sorted l =
    List.sort
      (fun (c1, r1) (c2, r2) ->
        if c1 <> c2 then compare c1 c2 else compare r2 r1 (* reads first *))
      (List.rev l)
  in
  { ram = Array.map sorted ram; regs = Array.map sorted regs }

(* Live-in RAM and register masks at the ascending [rungs]. *)
let live_in acc ~rungs =
  let nl = Array.length rungs in
  let ram_size = Array.length acc.ram in
  let masks = Array.init nl (fun _ -> Bytes.make ram_size '\000') in
  for b = 0 to ram_size - 1 do
    fold_live_in ~rungs acc.ram.(b) ~live:(fun i ->
        Bytes.set masks.(i) b '\xff')
  done;
  let reg_mask = Array.make nl 0 in
  for r = 1 to 15 do
    fold_live_in ~rungs acc.regs.(r) ~live:(fun i ->
        reg_mask.(i) <- reg_mask.(i) lor (1 lsl r))
  done;
  (masks, reg_mask)

(* One replay of a golden run's program on the reference interpreter,
   tracing RAM and registers: its RAM accesses and its register
   accesses (reads before writes within a cycle, as recorded). *)
let traced_run (golden : Golden.t) =
  let ram = ref [] and regs = ref [] in
  let tracer ~cycle ~addr ~width ~kind =
    ram := (cycle, addr, width, kind = Machine.Read) :: !ram
  in
  let exec_tracer ~cycle instr =
    let writes, reads = defs_uses instr in
    List.iter (fun r -> regs := (cycle, Isa.reg_index r, true) :: !regs) reads;
    List.iter (fun r -> regs := (cycle, Isa.reg_index r, false) :: !regs) writes
  in
  let m = Machine.create ~tracer ~exec_tracer golden.Golden.program in
  ignore (Machine.run m ~limit:(golden.Golden.cycles + 1));
  (List.rev !ram, List.rev !regs)

(* The ladder cycles of a checkpoint plan as it was built before the
   sweep: captured every [stride] cycles on a traced replay, which runs
   on the reference interpreter. *)
let rungs (golden : Golden.t) ~stride =
  let m =
    Machine.create ~exec_tracer:(fun ~cycle:_ _ -> ()) golden.Golden.program
  in
  let _, snaps =
    Machine.run_checkpointed m ~stride ~limit:(golden.Golden.cycles + 1)
  in
  Array.map Machine.Snapshot.cycle snaps

(* The register def/use partition as a pseudo-memory: each register
   access [(cycle, r, is_read)] (reads before writes within a cycle) a
   4-byte access to bytes [4 (r - 1) …] of a 60-byte trace, analysed
   byte by byte by [Defuse]. *)
let pseudo_memory_defuse ~cycles reg_accesses =
  let trace = Trace.create ~ram_size:Regspace.pseudo_ram_bytes in
  List.iter
    (fun (cycle, r, is_read) ->
      Trace.add trace ~cycle ~addr:(4 * (r - 1)) ~width:4
        ~kind:(if is_read then Trace.Read else Trace.Write))
    reg_accesses;
  Trace.seal trace ~total_cycles:cycles;
  Defuse.analyze trace

(* The register def/use partition from a second run of the program. *)
let reg_defuse (golden : Golden.t) =
  let _, regs = traced_run golden in
  pseudo_memory_defuse ~cycles:golden.Golden.cycles regs

(* The same partition of a register trace in the [Golden.registers]
   format: each cycle's reads of r1–r15, then its writes. *)
let reg_defuse_of_masks ~cycles masks =
  let accesses = ref [] in
  for cycle = 1 to cycles do
    let m = Golden.uses_defs masks cycle in
    for r = 1 to 15 do
      if m land (1 lsl r) <> 0 then accesses := (cycle, r, true) :: !accesses
    done;
    for r = 1 to 15 do
      if m land (1 lsl (16 + r)) <> 0 then
        accesses := (cycle, r, false) :: !accesses
    done
  done;
  pseudo_memory_defuse ~cycles (List.rev !accesses)
