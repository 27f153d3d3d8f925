type trap =
  | Misaligned_access of int
  | Unmapped_access of int
  | Rom_write of int
  | Division_by_zero
  | Bad_pc of int

let pp_trap ppf = function
  | Misaligned_access a -> Format.fprintf ppf "misaligned access at 0x%x" a
  | Unmapped_access a -> Format.fprintf ppf "unmapped access at 0x%x" a
  | Rom_write a -> Format.fprintf ppf "write to ROM at 0x%x" a
  | Division_by_zero -> Format.pp_print_string ppf "division by zero"
  | Bad_pc pc -> Format.fprintf ppf "control transfer to bad pc %d" pc

type stop_reason =
  | Halted
  | Trapped of trap
  | Panicked of int32
  | Cycle_limit

let pp_stop_reason ppf = function
  | Halted -> Format.pp_print_string ppf "halted"
  | Trapped t -> Format.fprintf ppf "trapped: %a" pp_trap t
  | Panicked code -> Format.fprintf ppf "panicked (code %ld)" code
  | Cycle_limit -> Format.pp_print_string ppf "cycle limit exceeded"

type access_kind = Read | Write

type tracer = cycle:int -> addr:int -> width:int -> kind:access_kind -> unit

type exec_tracer = cycle:int -> Isa.instr -> unit

type t = {
  prog : Program.t;
  code : Isa.instr array;
  blocks : blocks; (* block-compiled code, shared by forks *)
  rom : bytes;
  ram : Bytes.t;
  regs : int array;
      (* r0-r15 masked to 32 bits, unsigned representation; slot 16 is
         the write sink for r0 *)
  mutable pc : int;
  mutable cyc : int;
  serial_pre : string; (* immutable serial prefix, shared across restores *)
  serial_pre_len : int; (* live bytes of [serial_pre] *)
  serial : Buffer.t; (* bytes emitted past the shared prefix *)
  mutable events : (int * int32) list; (* reversed *)
  mutable stop : stop_reason option;
  tracer : tracer option;
  exec_tracer : exec_tracer option;
}

(* Compiled on the first run that uses it, then shared by every machine
   forked or restored from the same creation.  An atomic once-cell
   rather than [Lazy.t]: sessions on several domains restore snapshots
   of one machine, and [Lazy] forbids forcing from two at once. *)
and blocks = compiled option Atomic.t

and compiled = {
  xcode : (t -> unit) array;
  blen : int array; (* per pc: instructions left in its block *)
}

let program m = m.prog
let cycle m = m.cyc
let pc m = m.pc
let stopped m = m.stop

let serial_output m =
  if m.serial_pre_len = 0 then Buffer.contents m.serial
  else if
    Buffer.length m.serial = 0 && m.serial_pre_len = String.length m.serial_pre
  then m.serial_pre
  else begin
    let tail = Buffer.length m.serial in
    let b = Bytes.create (m.serial_pre_len + tail) in
    Bytes.blit_string m.serial_pre 0 b 0 m.serial_pre_len;
    Buffer.blit m.serial 0 b m.serial_pre_len tail;
    Bytes.unsafe_to_string b
  end

let serial_length m = m.serial_pre_len + Buffer.length m.serial

let serial_agrees m ~prefix ~len =
  serial_length m = len
  && String.length prefix >= len
  &&
  (* In place: the shared prefix (skipped when it is physically
     [prefix]), then the buffered tail — no output is materialised. *)
  let pre = m.serial_pre and off = m.serial_pre_len in
  let rec same_pre i =
    i >= off
    || Char.equal (String.unsafe_get pre i) (String.unsafe_get prefix i)
       && same_pre (i + 1)
  in
  let rec same_tail i =
    i >= len - off
    || Char.equal (Buffer.nth m.serial i) (String.unsafe_get prefix (off + i))
       && same_tail (i + 1)
  in
  (pre == prefix || same_pre 0) && same_tail 0

let detection_events m = List.rev m.events
let event_count m = List.length m.events

let mask32 = 0xFFFFFFFF
let to_u32 v = v land mask32

(* Signed view of a 32-bit unsigned representation. *)
let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let reg m r =
  let i = Isa.reg_index r in
  if i = 0 then 0l else Int32.of_int (signed m.regs.(i))

let set_reg m r v =
  let i = Isa.reg_index r in
  if i <> 0 then m.regs.(i) <- to_u32 (Int32.to_int v land mask32)

let check_ram m off what =
  if off < 0 || off >= Bytes.length m.ram then
    invalid_arg (Printf.sprintf "Machine.%s: offset %d outside RAM" what off)

let read_ram_byte m off =
  check_ram m off "read_ram_byte";
  Char.code (Bytes.get m.ram off)

let write_ram_byte m off v =
  check_ram m off "write_ram_byte";
  Bytes.set m.ram off (Char.chr (v land 0xFF))

let flip_bit m bit =
  let off = bit / 8 in
  check_ram m off "flip_bit";
  let b = Char.code (Bytes.get m.ram off) in
  Bytes.set m.ram off (Char.chr (b lxor (1 lsl (bit mod 8))))

let flip_reg_bit m ~reg ~bit =
  if reg < 1 || reg > 15 then
    invalid_arg "Machine.flip_reg_bit: register outside [1,15]";
  if bit < 0 || bit > 31 then
    invalid_arg "Machine.flip_reg_bit: bit outside [0,31]";
  m.regs.(reg) <- m.regs.(reg) lxor (1 lsl bit)

(* ------------------------------------------------------------------ *)
(* Memory system                                                      *)
(* ------------------------------------------------------------------ *)

exception Stop of stop_reason

let trace m ~addr ~width ~kind =
  match m.tracer with
  | Some f -> f ~cycle:m.cyc ~addr ~width ~kind
  | None -> ()

let rom_byte m off = if off < Bytes.length m.rom then Char.code (Bytes.get m.rom off) else 0

let load_byte m addr =
  match Memmap.classify ~ram_size:(Bytes.length m.ram) addr with
  | Memmap.Ram ->
      trace m ~addr ~width:1 ~kind:Read;
      (* classify proved the bound *)
      Char.code (Bytes.unsafe_get m.ram addr)
  | Memmap.Rom -> rom_byte m (addr - Memmap.rom_base)
  | Memmap.Mmio -> 0
  | Memmap.Unmapped -> raise (Stop (Trapped (Unmapped_access addr)))

let load_word m addr =
  if addr land 3 <> 0 then raise (Stop (Trapped (Misaligned_access addr)));
  match Memmap.classify ~ram_size:(Bytes.length m.ram) addr with
  | Memmap.Ram ->
      if addr + 3 >= Bytes.length m.ram then
        raise (Stop (Trapped (Unmapped_access addr)));
      trace m ~addr ~width:4 ~kind:Read;
      let b i = Char.code (Bytes.unsafe_get m.ram (addr + i)) in
      b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
  | Memmap.Rom ->
      let off = addr - Memmap.rom_base in
      let b i = rom_byte m (off + i) in
      b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
  | Memmap.Mmio -> 0
  | Memmap.Unmapped -> raise (Stop (Trapped (Unmapped_access addr)))

let mmio_store m addr value =
  if addr = Memmap.serial_port then
    Buffer.add_char m.serial (Char.chr (value land 0xFF))
  else if addr = Memmap.detect_port then
    m.events <- (m.cyc, Int32.of_int (signed value)) :: m.events
  else if addr = Memmap.panic_port then
    raise (Stop (Panicked (Int32.of_int (signed value))))
  else () (* other MMIO slots: ignored *)

let store_byte m addr value =
  match Memmap.classify ~ram_size:(Bytes.length m.ram) addr with
  | Memmap.Ram ->
      trace m ~addr ~width:1 ~kind:Write;
      Bytes.set m.ram addr (Char.chr (value land 0xFF))
  | Memmap.Rom -> raise (Stop (Trapped (Rom_write addr)))
  | Memmap.Mmio -> mmio_store m addr value
  | Memmap.Unmapped -> raise (Stop (Trapped (Unmapped_access addr)))

let store_word m addr value =
  if addr land 3 <> 0 then raise (Stop (Trapped (Misaligned_access addr)));
  match Memmap.classify ~ram_size:(Bytes.length m.ram) addr with
  | Memmap.Ram ->
      if addr + 3 >= Bytes.length m.ram then
        raise (Stop (Trapped (Unmapped_access addr)));
      trace m ~addr ~width:4 ~kind:Write;
      Bytes.set m.ram addr (Char.chr (value land 0xFF));
      Bytes.set m.ram (addr + 1) (Char.chr ((value lsr 8) land 0xFF));
      Bytes.set m.ram (addr + 2) (Char.chr ((value lsr 16) land 0xFF));
      Bytes.set m.ram (addr + 3) (Char.chr ((value lsr 24) land 0xFF))
  | Memmap.Rom -> raise (Stop (Trapped (Rom_write addr)))
  | Memmap.Mmio -> mmio_store m addr value
  | Memmap.Unmapped -> raise (Stop (Trapped (Unmapped_access addr)))

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

let alu_eval op a b =
  (* a, b are unsigned 32-bit representations; result likewise. *)
  match (op : Isa.alu_op) with
  | Add -> to_u32 (a + b)
  | Sub -> to_u32 (a - b)
  | Mul -> to_u32 (a * b)
  | Divu ->
      if b = 0 then raise (Stop (Trapped Division_by_zero)) else to_u32 (a / b)
  | Remu ->
      if b = 0 then raise (Stop (Trapped Division_by_zero))
      else to_u32 (a mod b)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> to_u32 (a lsl (b land 31))
  | Shr -> a lsr (b land 31)
  | Sar -> to_u32 (signed a asr (b land 31))
  | Slt -> if signed a < signed b then 1 else 0
  | Sltu -> if a < b then 1 else 0

let cond_eval c a b =
  match (c : Isa.cond) with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> signed a < signed b
  | Ge -> signed a >= signed b
  | Ltu -> a < b
  | Geu -> a >= b

(* Register slot 16 is the write sink for [r0]: writes to [r0] land
   there, so slot 0 stays zero and reads need no [r0] test. *)
let sink i = if i = 0 then 16 else i
let src r = Isa.reg_index r
let dst r = sink (Isa.reg_index r)

(* [src] and [dst] indices lie in [0, 16] by construction. *)
let get m i = Array.unsafe_get m.regs i
let set m i v = Array.unsafe_set m.regs i v

let jump_to m target =
  if target < 0 || target >= Array.length m.code then
    raise (Stop (Trapped (Bad_pc target)))
  else m.pc <- target

let imm32 v = to_u32 (Int32.to_int v land mask32)

let execute m instr =
  match (instr : Isa.instr) with
  | Nop -> m.pc <- m.pc + 1
  | Halt -> raise (Stop Halted)
  | Li (rd, imm) ->
      set m (dst rd) (imm32 imm);
      m.pc <- m.pc + 1
  | Alu (op, rd, rs1, rs2) ->
      set m (dst rd) (alu_eval op (get m (src rs1)) (get m (src rs2)));
      m.pc <- m.pc + 1
  | Alui (op, rd, rs1, imm) ->
      set m (dst rd) (alu_eval op (get m (src rs1)) (imm32 imm));
      m.pc <- m.pc + 1
  | Lb (rd, rs, off) ->
      let addr = to_u32 (get m (src rs) + Int32.to_int off) in
      set m (dst rd) (load_byte m addr);
      m.pc <- m.pc + 1
  | Lw (rd, rs, off) ->
      let addr = to_u32 (get m (src rs) + Int32.to_int off) in
      set m (dst rd) (load_word m addr);
      m.pc <- m.pc + 1
  | Sb (rd, rs, off) ->
      let addr = to_u32 (get m (src rs) + Int32.to_int off) in
      store_byte m addr (get m (src rd));
      m.pc <- m.pc + 1
  | Sw (rd, rs, off) ->
      let addr = to_u32 (get m (src rs) + Int32.to_int off) in
      store_word m addr (get m (src rd));
      m.pc <- m.pc + 1
  | Beq (rs1, rs2, target, c) ->
      if cond_eval c (get m (src rs1)) (get m (src rs2)) then jump_to m target
      else m.pc <- m.pc + 1
  | Jmp target -> jump_to m target
  | Jal (rd, target) ->
      set m (dst rd) (m.pc + 1);
      jump_to m target
  | Jr rs -> jump_to m (get m (src rs))

(* The reference interpreter, one instruction per call.  Every fetch
   takes its cycle, the one at [pc = length code] too: it stops with
   [Bad_pc]. *)
let step m =
  match m.stop with
  | Some _ -> ()
  | None ->
      m.cyc <- m.cyc + 1;
      if m.pc < 0 || m.pc >= Array.length m.code then
        m.stop <- Some (Trapped (Bad_pc m.pc))
      else begin
        let instr = Array.unsafe_get m.code m.pc in
        (match m.exec_tracer with
        | Some f -> f ~cycle:m.cyc instr
        | None -> ());
        try execute m instr with Stop reason -> m.stop <- Some reason
      end

let skip_next m =
  match m.stop with
  | Some _ -> ()
  | None ->
      (* the fetched instruction executes as [Nop]: one cycle elapses,
         pc advances, no architectural state changes *)
      m.cyc <- m.cyc + 1;
      if m.pc < 0 || m.pc >= Array.length m.code then
        m.stop <- Some (Trapped (Bad_pc m.pc))
      else m.pc <- m.pc + 1

(* ------------------------------------------------------------------ *)
(* Block compilation                                                  *)
(* ------------------------------------------------------------------ *)

(* The campaign hot path simulates hundreds of millions of cycles, so
   the run loop's per-instruction bookkeeping costs as much as the
   instructions.  Code therefore compiles once per program into
   closures specialised on their operands — register indices,
   immediates and branch targets resolved, static control transfers
   bounds-checked, in-RAM loads and stores inline and word-wide, every
   ALU op but [divu]/[remu] its own closure, two constant idioms fused
   (see [idiom]) — chained into blocks.

   A block ends at a control transfer ([Beq], [Jmp], [Jal], [Jr],
   [Halt]), at the last instruction and at every [block_cap]-th pc.
   Each closure does its work and tail-calls its successor's; only a
   block's last instruction sets [pc].  [blen.(pc)] counts the
   instructions from [pc] to the end of its block, so the run loop
   checks the budget and charges the cycles once per block: while the
   chain runs, [cyc] holds the block-end cycle, and an instruction [k]
   places before the end executes at cycle [cyc - k].  Traps, MMIO
   stores and tracer calls restore that exact cycle and the exact pc
   first, so every observable matches {!step}.

   Both arrays have an entry at [length code]: falling off the end is a
   one-instruction block whose fetch takes its cycle and stops with
   [Bad_pc], as under {!step}.  Every compiled transfer validates its
   target, so no other out-of-range pc is reachable while the machine
   runs.  The arrays are shared by every machine forked or restored
   from the same creation (closures capture no machine). *)

let block_cap = 16

(* Set the exact pc and cycle of the instruction at [pc], [k] places
   before its block's end. *)
let exact m ~pc ~k =
  m.pc <- pc;
  m.cyc <- m.cyc - k

let trap_at m ~pc ~k t =
  exact m ~pc ~k;
  raise (Stop (Trapped t))

(* The full memory system, entered at the exact pc and cycle; a normal
   return puts the cycle back at the block end. *)
let slow_load m ~pc ~k load addr =
  exact m ~pc ~k;
  let v = load m addr in
  m.cyc <- m.cyc + k;
  v

let slow_store m ~pc ~k store addr v =
  exact m ~pc ~k;
  store m addr v;
  m.cyc <- m.cyc + k

(* RAM words are little-endian on every host: one 32-bit access, byte
   swapped on a big-endian one. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let[@inline] ram_word ram addr =
  let w = get32u ram addr in
  Int32.to_int (if Sys.big_endian then bswap32 w else w) land mask32

let[@inline] set_ram_word ram addr v =
  let w = Int32.of_int v in
  set32u ram addr (if Sys.big_endian then bswap32 w else w)

(* [op] with a constant right operand [v], after writing [w] to
   register slot [wr]: the [Alui] closures, and those of [li r, c; op
   rd, ra, r] fused with [wr = dst r].  A plain [Alui] writes the [r0]
   sink, which nothing reads.  [Divu] and [Remu] come here only with
   [v <> 0]. *)
let imm_op ~wr ~w op d a v next : t -> unit =
  match (op : Isa.alu_op) with
  | Add ->
      fun m ->
        set m wr w;
        set m d (to_u32 (get m a + v));
        next m
  | Sub ->
      fun m ->
        set m wr w;
        set m d (to_u32 (get m a - v));
        next m
  | Mul ->
      fun m ->
        set m wr w;
        set m d (to_u32 (get m a * v));
        next m
  | And ->
      fun m ->
        set m wr w;
        set m d (get m a land v);
        next m
  | Or ->
      fun m ->
        set m wr w;
        set m d (get m a lor v);
        next m
  | Xor ->
      fun m ->
        set m wr w;
        set m d (get m a lxor v);
        next m
  | Shl ->
      let s = v land 31 in
      fun m ->
        set m wr w;
        set m d (to_u32 (get m a lsl s));
        next m
  | Shr ->
      let s = v land 31 in
      fun m ->
        set m wr w;
        set m d (get m a lsr s);
        next m
  | Sar ->
      let s = v land 31 in
      fun m ->
        set m wr w;
        set m d (to_u32 (signed (get m a) asr s));
        next m
  | Slt ->
      let v = signed v in
      fun m ->
        set m wr w;
        set m d (if signed (get m a) < v then 1 else 0);
        next m
  | Sltu ->
      fun m ->
        set m wr w;
        set m d (if get m a < v then 1 else 0);
        next m
  | Divu | Remu ->
      fun m ->
        set m wr w;
        set m d (alu_eval op (get m a) v);
        next m

let compile_instr ~ram_size ~code_len ~pc ~k ~next instr : t -> unit =
  let valid t = t >= 0 && t < code_len in
  let fall = pc + 1 in
  match (instr : Isa.instr) with
  | Nop -> next
  | Halt ->
      fun m ->
        m.pc <- pc;
        raise (Stop Halted)
  | Li (rd, imm) ->
      let d = dst rd and v = imm32 imm in
      fun m ->
        set m d v;
        next m
  | Alu (op, rd, rs1, rs2) -> (
      let d = dst rd and a = src rs1 and b = src rs2 in
      match (op : Isa.alu_op) with
      | Add ->
          fun m ->
            set m d (to_u32 (get m a + get m b));
            next m
      | Sub ->
          fun m ->
            set m d (to_u32 (get m a - get m b));
            next m
      | Mul ->
          fun m ->
            set m d (to_u32 (get m a * get m b));
            next m
      | And ->
          fun m ->
            set m d (get m a land get m b);
            next m
      | Or ->
          fun m ->
            set m d (get m a lor get m b);
            next m
      | Xor ->
          fun m ->
            set m d (get m a lxor get m b);
            next m
      | Shl ->
          fun m ->
            set m d (to_u32 (get m a lsl (get m b land 31)));
            next m
      | Shr ->
          fun m ->
            set m d (get m a lsr (get m b land 31));
            next m
      | Sar ->
          fun m ->
            set m d (to_u32 (signed (get m a) asr (get m b land 31)));
            next m
      | Slt ->
          fun m ->
            set m d (if signed (get m a) < signed (get m b) then 1 else 0);
            next m
      | Sltu ->
          fun m ->
            set m d (if get m a < get m b then 1 else 0);
            next m
      | Divu | Remu ->
          fun m ->
            let y = get m b in
            if y = 0 then trap_at m ~pc ~k Division_by_zero;
            set m d (alu_eval op (get m a) y);
            next m)
  | Alui (op, rd, rs1, imm) -> (
      let v = imm32 imm in
      match (op : Isa.alu_op) with
      | (Divu | Remu) when v = 0 -> fun m -> trap_at m ~pc ~k Division_by_zero
      | op -> imm_op ~wr:16 ~w:0 op (dst rd) (src rs1) v next)
  | Lb (rd, rs, off) ->
      let d = dst rd and s = src rs and off = Int32.to_int off in
      fun m ->
        let addr = to_u32 (get m s + off) in
        set m d
          (if addr < ram_size then begin
             (match m.tracer with
             | Some f -> f ~cycle:(m.cyc - k) ~addr ~width:1 ~kind:Read
             | None -> ());
             Char.code (Bytes.unsafe_get m.ram addr)
           end
           else slow_load m ~pc ~k load_byte addr);
        next m
  | Lw (rd, rs, off) ->
      let d = dst rd and s = src rs and off = Int32.to_int off in
      fun m ->
        let addr = to_u32 (get m s + off) in
        set m d
          (if addr land 3 = 0 && addr + 3 < ram_size then begin
             (match m.tracer with
             | Some f -> f ~cycle:(m.cyc - k) ~addr ~width:4 ~kind:Read
             | None -> ());
             ram_word m.ram addr
           end
           else slow_load m ~pc ~k load_word addr);
        next m
  | Sb (rv, rs, off) ->
      let v = src rv and s = src rs and off = Int32.to_int off in
      fun m ->
        let addr = to_u32 (get m s + off) in
        (if addr < ram_size then begin
           (match m.tracer with
           | Some f -> f ~cycle:(m.cyc - k) ~addr ~width:1 ~kind:Write
           | None -> ());
           Bytes.unsafe_set m.ram addr (Char.unsafe_chr (get m v land 0xFF))
         end
         else slow_store m ~pc ~k store_byte addr (get m v));
        next m
  | Sw (rv, rs, off) ->
      let v = src rv and s = src rs and off = Int32.to_int off in
      fun m ->
        let addr = to_u32 (get m s + off) in
        (if addr land 3 = 0 && addr + 3 < ram_size then begin
           (match m.tracer with
           | Some f -> f ~cycle:(m.cyc - k) ~addr ~width:4 ~kind:Write
           | None -> ());
           set_ram_word m.ram addr (get m v)
         end
         else slow_store m ~pc ~k store_word addr (get m v));
        next m
  (* Control transfers end their block: [k = 0]. *)
  | Beq (rs1, rs2, target, c) -> (
      let a = src rs1 and b = src rs2 in
      if not (valid target) then fun m ->
        if cond_eval c (get m a) (get m b) then
          trap_at m ~pc ~k:0 (Bad_pc target)
        else m.pc <- fall
      else
        match (c : Isa.cond) with
        | Eq -> fun m -> m.pc <- (if get m a = get m b then target else fall)
        | Ne -> fun m -> m.pc <- (if get m a <> get m b then target else fall)
        | Lt ->
            fun m ->
              m.pc <- (if signed (get m a) < signed (get m b) then target else fall)
        | Ge ->
            fun m ->
              m.pc <- (if signed (get m a) >= signed (get m b) then target else fall)
        | Ltu -> fun m -> m.pc <- (if get m a < get m b then target else fall)
        | Geu -> fun m -> m.pc <- (if get m a >= get m b then target else fall))
  | Jmp target ->
      if valid target then fun m -> m.pc <- target
      else fun m -> trap_at m ~pc ~k:0 (Bad_pc target)
  | Jal (rd, target) ->
      let d = dst rd in
      if valid target then fun m ->
        set m d fall;
        m.pc <- target
      else fun m ->
        set m d fall;
        trap_at m ~pc ~k:0 (Bad_pc target)
  | Jr rs ->
      let s = src rs in
      fun m ->
        let target = get m s in
        if target >= code_len then trap_at m ~pc ~k:0 (Bad_pc target)
        else m.pc <- target

let ends_block (instr : Isa.instr) =
  match instr with
  | Beq _ | Jmp _ | Jal _ | Jr _ | Halt -> true
  | Nop | Li _ | Alu _ | Alui _ | Lb _ | Lw _ | Sb _ | Sw _ -> false

let block_last code pc =
  ends_block code.(pc)
  || pc + 1 = Array.length code
  || (pc + 1) mod block_cap = 0

(* Idioms whose instructions compile into one closure, at the pc of
   their [li]: two or three instructions of one block, the constant
   folded into its consumer.

   - [li r, c; op rd, ra, r] with [ra <> r] and [op] neither [Divu] nor
     [Remu], which could trap;
   - [li r, c; shli r2, r, s; lw rd, off(r2)] when the loaded address
     is constant, aligned and in RAM, so the load can neither trap nor
     reach MMIO: the code generator's constant-index global load.

   A fused closure writes every register in order and reports its load
   to the tracer at the load's own cycle.  It sits only at the [li]'s
   pc: the pcs behind it keep their own closures, for runs that enter
   the block there. *)
type idiom =
  | Li_op of { r : int; c : int; v : int; op : Isa.alu_op; d : int; a : int }
  | Li_shl_lw of { r : int; c : int; r2 : int; v2 : int; d : int; addr : int }

(* The value a read of [r] sees after writing [v] to it. *)
let written r v = if Isa.reg_index r = 0 then 0 else v

let same r r' = Isa.reg_index r = Isa.reg_index r'

let idiom ~ram_size code pc =
  match code.(pc) with
  | Isa.Li (r, c) when not (block_last code pc) -> (
      let c = imm32 c in
      match code.(pc + 1) with
      | Isa.Alu (op, rd, ra, rb)
        when same rb r && not (same ra r) && op <> Isa.Divu && op <> Isa.Remu ->
          Some
            (Li_op { r = dst r; c; v = written r c; op; d = dst rd; a = src ra })
      | Isa.Alui (Isa.Shl, r2, rs, s)
        when same rs r && not (block_last code (pc + 1)) -> (
          let v2 = to_u32 (written r c lsl (imm32 s land 31)) in
          match code.(pc + 2) with
          | Isa.Lw (rd, rb, off) when same rb r2 ->
              let addr = to_u32 (written r2 v2 + Int32.to_int off) in
              if addr land 3 = 0 && addr + 3 < ram_size then
                Some
                  (Li_shl_lw
                     { r = dst r; c; r2 = dst r2; v2; d = dst rd; addr })
              else None
          | _ -> None)
      | _ -> None)
  | _ -> None

let idiom_length = function Li_op _ -> 2 | Li_shl_lw _ -> 3

let fused_length (prog : Program.t) pc =
  match idiom ~ram_size:prog.Program.ram_size prog.Program.code pc with
  | None -> 1
  | Some i -> idiom_length i

(* [k] places the [li] before its block's end; [next] follows the
   idiom's last instruction. *)
let compile_idiom ~k ~next = function
  | Li_op { r; c; v; op; d; a } -> imm_op ~wr:r ~w:c op d a v next
  | Li_shl_lw { r; c; r2; v2; d; addr } ->
      let k = k - 2 in
      fun m ->
        set m r c;
        set m r2 v2;
        (match m.tracer with
        | Some f -> f ~cycle:(m.cyc - k) ~addr ~width:4 ~kind:Read
        | None -> ());
        set m d (ram_word m.ram addr);
        next m

(* Compiled back to front, so each closure can capture its successor. *)
let compile_program (prog : Program.t) =
  let code = prog.Program.code in
  let code_len = Array.length code in
  let ram_size = prog.Program.ram_size in
  let blen = Array.make (code_len + 1) 1 in
  let xcode =
    Array.make (code_len + 1) (fun _ -> raise (Stop (Trapped (Bad_pc code_len))))
  in
  (* The closure that runs after the instruction at [pc]. *)
  let after pc =
    if block_last code pc then
      let fall = pc + 1 in
      fun m -> m.pc <- fall
    else xcode.(pc + 1)
  in
  for pc = code_len - 1 downto 0 do
    let k = if block_last code pc then 0 else blen.(pc + 1) in
    blen.(pc) <- k + 1;
    xcode.(pc) <-
      (match idiom ~ram_size code pc with
      | Some i -> compile_idiom ~k ~next:(after (pc + idiom_length i - 1)) i
      | None ->
          compile_instr ~ram_size ~code_len ~pc ~k ~next:(after pc) code.(pc))
  done;
  { xcode; blen }

(* One compilation per creation: the lock makes a second domain that
   finds the cell empty wait for the first one's result. *)
let compile_lock = Mutex.create ()

let compiled m =
  match Atomic.get m.blocks with
  | Some c -> c
  | None ->
      Mutex.protect compile_lock (fun () ->
          match Atomic.get m.blocks with
          | Some c -> c
          | None ->
              let c = compile_program m.prog in
              Atomic.set m.blocks (Some c);
              c)

let create ?tracer ?exec_tracer prog =
  let regs = Array.make 17 0 in
  List.iter
    (fun (r, v) ->
      let i = Isa.reg_index r in
      if i <> 0 then regs.(i) <- Int32.to_int v land 0xFFFFFFFF)
    prog.Program.reg_init;
  {
    prog;
    code = prog.Program.code;
    blocks = Atomic.make None;
    rom = prog.Program.rom;
    ram = Program.initial_ram prog;
    regs;
    pc = 0;
    cyc = 0;
    serial_pre = "";
    serial_pre_len = 0;
    serial = Buffer.create 64;
    events = [];
    stop = None;
    tracer;
    exec_tracer;
  }

(* ------------------------------------------------------------------ *)
(* Run loops                                                          *)
(* ------------------------------------------------------------------ *)

(* The compiled hot loop: one budget check per block, and none of the
   fetches needs a bounds check (see [compile_program]).  It returns at
   the first block that does not fit the budget; the [Stop] handler is
   hoisted into [run_to]. *)
let rec run_blocks m xcode blen stop_at =
  let pc = m.pc in
  let block_end = m.cyc + Array.unsafe_get blen pc in
  if block_end <= stop_at then begin
    m.cyc <- block_end;
    (Array.unsafe_get xcode pc) m;
    run_blocks m xcode blen stop_at
  end

let rec step_to m stop_at =
  if m.cyc < stop_at && m.stop == None then begin
    step m;
    step_to m stop_at
  end

(* Whole blocks while they fit, then the reference interpreter for the
   fewer than [block_cap] cycles left.  Machines with an exec tracer
   (golden analysis) interpret all the way, so the tracer observes
   every instruction; they run once per campaign, off the hot path. *)
let run_to m stop_at =
  if m.stop == None && m.exec_tracer == None then (
    let { xcode; blen } = compiled m in
    try run_blocks m xcode blen stop_at
    with Stop reason -> m.stop <- Some reason);
  step_to m stop_at

let run m ~limit =
  run_to m limit;
  match m.stop with
  | Some reason -> reason
  | None ->
      m.stop <- Some Cycle_limit;
      Cycle_limit

let run_until m ~cycle = run_to m cycle

let fork m =
  let serial = Buffer.create (Buffer.length m.serial + 64) in
  Buffer.add_buffer serial m.serial;
  {
    m with
    ram = Bytes.copy m.ram;
    regs = Array.copy m.regs;
    serial;
    tracer = None;
    exec_tracer = None;
  }


module Snapshot = struct
  type machine = t

  type t = {
    s_prog : Program.t;
    s_blocks : blocks; (* shared with the captured machine *)
    s_ram : bytes;
    s_regs : int array;
    s_pc : int;
    s_cyc : int;
    s_serial_pre : string; (* immutable shared prefix *)
    s_serial_pre_len : int; (* live bytes of [s_serial_pre] *)
    s_serial_tail : string; (* bytes past the prefix at capture time *)
    s_events : (int * int32) list;
    s_event_count : int;
    s_stop : stop_reason option;
    s_id : int; (* process-unique, for {!encode_diff} *)
  }

  let next_id = Atomic.make 0

  let capture (m : machine) =
    {
      s_prog = m.prog;
      s_blocks = m.blocks;
      s_ram = Bytes.copy m.ram;
      s_regs = Array.copy m.regs;
      s_pc = m.pc;
      s_cyc = m.cyc;
      s_serial_pre = m.serial_pre;
      s_serial_pre_len = m.serial_pre_len;
      s_serial_tail = Buffer.contents m.serial;
      s_events = m.events;
      s_event_count = List.length m.events;
      s_stop = m.stop;
      s_id = Atomic.fetch_and_add next_id 1;
    }

  let restore s : machine =
    let serial = Buffer.create (String.length s.s_serial_tail + 64) in
    Buffer.add_string serial s.s_serial_tail;
    {
      prog = s.s_prog;
      code = s.s_prog.Program.code;
      blocks = s.s_blocks;
      rom = s.s_prog.Program.rom;
      ram = Bytes.copy s.s_ram;
      regs = Array.copy s.s_regs;
      pc = s.s_pc;
      cyc = s.s_cyc;
      serial_pre = s.s_serial_pre;
      serial_pre_len = s.s_serial_pre_len;
      serial;
      events = s.s_events;
      stop = s.s_stop;
      tracer = None;
      exec_tracer = None;
    }

  let cycle s = s.s_cyc
  let serial_length s = s.s_serial_pre_len + String.length s.s_serial_tail
  let event_count s = s.s_event_count
end

let run_checkpointed m ~stride ~limit =
  if stride <= 0 then
    invalid_arg "Machine.run_checkpointed: stride must be positive";
  let marks = ref [] in
  let rec go () =
    let next = m.cyc + stride in
    if next >= limit then run m ~limit
    else begin
      run_until m ~cycle:next;
      match m.stop with
      | Some r -> r
      | None ->
          marks :=
            ( Bytes.copy m.ram,
              Array.copy m.regs,
              m.pc,
              m.cyc,
              serial_length m,
              m.events,
              List.length m.events )
            :: !marks;
          go ()
    end
  in
  let stop = go () in
  (* Serial state was recorded as a length watermark; resolve every
     checkpoint against the run's final output (serial output is
     append-only, so the first [mark] bytes are the capture-time
     content), sharing one string across the whole ladder. *)
  let full = serial_output m in
  let snaps =
    List.rev_map
      (fun (ram, regs, pc, cyc, mark, events, evn) ->
        {
          Snapshot.s_prog = m.prog;
          s_blocks = m.blocks;
          s_ram = ram;
          s_regs = regs;
          s_pc = pc;
          s_cyc = cyc;
          s_serial_pre = full;
          s_serial_pre_len = mark;
          s_serial_tail = "";
          s_events = events;
          s_event_count = evn;
          s_stop = None;
          s_id = Atomic.fetch_and_add Snapshot.next_id 1;
        })
      !marks
  in
  (stop, Array.of_list snaps)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

type live_ram = { mask : Bytes.t; words : int array }

(* The 8-byte windows that hold a live byte: every aligned word, and,
   when the size is not a multiple of 8, the window ending at the last
   byte, which covers the partial word without reading past it. *)
let live_ram mask =
  let n = Bytes.length mask in
  let words = ref [] in
  if n >= 8 then begin
    let full = n land lnot 7 in
    let rec partial b =
      b < n && (Bytes.get mask b <> '\000' || partial (b + 1))
    in
    if partial full then words := [ n - 8 ];
    let o = ref (full - 8) in
    while !o >= 0 do
      if get64u mask !o <> 0L then words := !o :: !words;
      o := !o - 8
    done
  end;
  { mask; words = Array.of_list !words }

let converges_with m (s : Snapshot.t) ~ram_live ~reg_mask =
  m.cyc = s.Snapshot.s_cyc
  && m.pc = s.Snapshot.s_pc
  && (match (m.stop, s.Snapshot.s_stop) with
     | None, None -> true
     | _, _ -> false)
  && (let sregs = s.Snapshot.s_regs in
      let regs = m.regs in
      let rec go r =
        r >= 16
        || ((reg_mask land (1 lsl r) = 0
            || Array.unsafe_get regs r = Array.unsafe_get sregs r)
           && go (r + 1))
      in
      go 1)
  &&
  let sram = s.Snapshot.s_ram and ram = m.ram and mask = ram_live.mask in
  let n = Bytes.length mask in
  if n <> Bytes.length ram then
    invalid_arg "Machine.converges_with: live mask and RAM sizes differ";
  if n < 8 then
    let rec go b =
      b >= n
      || (Bytes.get mask b = '\000' || Bytes.get ram b = Bytes.get sram b)
         && go (b + 1)
    in
    go 0
  else
    let words = ram_live.words in
    let rec go i =
      i >= Array.length words
      ||
      let o = Array.unsafe_get words i in
      Int64.logand (Int64.logxor (get64u ram o) (get64u sram o)) (get64u mask o)
      = 0L
      && go (i + 1)
    in
    go 0

let add_varint buf n =
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (n land 0x7F lor 0x80));
      go (n lsr 7)
    end
  in
  go n

(* Layout: the snapshot's id, serial length, event count and pc
   (varints); a 16-bit mask
   of the registers that differ, then each one's 32-bit value; then
   every differing RAM byte as its offset (16-bit when RAM fits 64 KiB,
   else 32-bit) and value.  The id fixes the RAM size and the RAM
   entries run to the end, so the encoding is injective.  RAM is compared
   eight bytes at a time: runs that reach a probe typically differ from
   the snapshot in a handful of bytes. *)
let encode_diff buf m (s : Snapshot.t) =
  add_varint buf s.Snapshot.s_id;
  add_varint buf (serial_length m);
  add_varint buf (event_count m);
  add_varint buf m.pc;
  let regs = m.regs and sregs = s.Snapshot.s_regs in
  let mask = ref 0 in
  for r = 1 to 15 do
    if Array.unsafe_get regs r <> Array.unsafe_get sregs r then
      mask := !mask lor (1 lsl r)
  done;
  Buffer.add_uint16_le buf !mask;
  for r = 1 to 15 do
    if !mask land (1 lsl r) <> 0 then
      Buffer.add_int32_le buf (Int32.of_int regs.(r))
  done;
  let ram = m.ram and sram = s.Snapshot.s_ram in
  let n = Bytes.length ram in
  let add_off =
    if n <= 0x10000 then Buffer.add_uint16_le buf
    else fun off -> Buffer.add_int32_le buf (Int32.of_int off)
  in
  let add_bytes lo hi =
    for b = lo to hi - 1 do
      let v = Bytes.unsafe_get ram b in
      if not (Char.equal v (Bytes.unsafe_get sram b)) then begin
        add_off b;
        Buffer.add_char buf v
      end
    done
  in
  let words = n land lnot 7 in
  let i = ref 0 in
  while !i < words do
    if get64u ram !i <> get64u sram !i then add_bytes !i (!i + 8);
    i := !i + 8
  done;
  add_bytes words n
