(** MIR → ISA code generation.

    Compilation model:
    - registers [r1]–[r9] hold expression temporaries (never spilled;
      {!Check} bounds expression depth), [r10] holds a pending store
      address within one statement, [r11]/[r12] are per-instruction
      scratch, [sp]/[fp]/[ra] follow the ISA conventions;
    - each function gets a stack frame [locals… | saved ra | saved fp]
      addressed from [fp]; parameters arrive in [r1]–[r4] and are stored
      into their slots on entry, so locals and parameters are ordinary
      RAM — and therefore part of the fault space, like compiler-managed
      stacks on real hardware;
    - the program entry sets up [sp], calls [main] and halts. *)

val compile : Mir.prog -> Program.t
(** [compile p] checks [p] ({!Check.check_exn}) and generates the
    executable image.

    @raise Invalid_argument if the program is invalid. *)
