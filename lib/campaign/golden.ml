type t = {
  program : Program.t;
  output : string;
  cycles : int;
  event_count : int;
  trace : Trace.t;
  defuse : Defuse.t;
  registers : registers;
}

(* Recorded on first use, then shared.  A mutex-guarded once-cell
   rather than [Lazy.t]: the domains backend asks from several domains
   at once, which [Lazy] forbids. *)
and registers = { lock : Mutex.t; mutable masks : Bytes.t option }

exception Golden_failed of Program.t * Machine.stop_reason

let run ?(limit = 50_000_000) program =
  let trace = Trace.create ~ram_size:program.Program.ram_size in
  let tracer ~cycle ~addr ~width ~kind =
    let kind =
      match (kind : Machine.access_kind) with
      | Machine.Read -> Trace.Read
      | Machine.Write -> Trace.Write
    in
    Trace.add trace ~cycle ~addr ~width ~kind
  in
  let machine = Machine.create ~tracer program in
  match Machine.run machine ~limit with
  | Machine.Halted ->
      let cycles = Machine.cycle machine in
      Trace.seal trace ~total_cycles:cycles;
      {
        program;
        output = Machine.serial_output machine;
        cycles;
        event_count = List.length (Machine.detection_events machine);
        trace;
        defuse = Defuse.analyze trace;
        registers = { lock = Mutex.create (); masks = None };
      }
  | (Machine.Trapped _ | Machine.Panicked _ | Machine.Cycle_limit) as reason ->
      raise (Golden_failed (program, reason))

let register_replays = Atomic.make 0

let uses_defs registers cycle =
  let o = 4 * (cycle - 1) in
  Bytes.get_uint16_le registers o lor (Bytes.get_uint16_le registers (o + 2) lsl 16)

(* The compiled blocks call no exec tracer, so the replay runs on the
   reference interpreter. *)
let record_registers g =
  Atomic.incr register_replays;
  let masks = Bytes.make (4 * g.cycles) '\000' in
  let exec_tracer ~cycle instr =
    if cycle <= g.cycles then begin
      let m = Isa.reg_uses_defs instr and o = 4 * (cycle - 1) in
      Bytes.set_uint16_le masks o (m land 0xFFFF);
      Bytes.set_uint16_le masks (o + 2) (m lsr 16)
    end
  in
  let machine = Machine.create ~exec_tracer g.program in
  (match Machine.run machine ~limit:(g.cycles + 1) with
  | Machine.Halted when Machine.cycle machine = g.cycles -> ()
  | Machine.Halted -> invalid_arg "Golden.registers: replay halted off cycle"
  | reason ->
      (* The machine is deterministic; a divergence here is a bug. *)
      invalid_arg
        (Format.asprintf "Golden.registers: replay stopped with %a"
           Machine.pp_stop_reason reason));
  masks

let registers g =
  let r = g.registers in
  Mutex.protect r.lock (fun () ->
      match r.masks with
      | Some masks -> masks
      | None ->
          let masks = record_registers g in
          r.masks <- Some masks;
          masks)

let register_replays () = Atomic.get register_replays

let fault_space_size g = Defuse.fault_space_size g.defuse

let timeout_limit g = (2 * g.cycles) + 2048

let pp_summary ppf g =
  Format.fprintf ppf
    "%s: %d cycles, %d bytes RAM, fault space w = %d bit-cycles, %d pruned \
     experiments (factor %.0f)"
    g.program.Program.name g.cycles g.program.Program.ram_size
    (fault_space_size g)
    (Defuse.experiment_count g.defuse)
    (Defuse.pruning_factor g.defuse)
