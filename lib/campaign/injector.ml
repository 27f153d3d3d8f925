let classify_stopped golden machine stop =
  Outcome.classify ~golden_output:golden.Golden.output
    ~golden_event_count:golden.Golden.event_count ~stop
    ~output:(Machine.serial_output machine)
    ~event_count:(Machine.event_count machine)

let finish golden machine =
  let stop = Machine.run machine ~limit:(Golden.timeout_limit golden) in
  classify_stopped golden machine stop

(* ------------------------------------------------------------------ *)
(* Checkpoint plans                                                   *)
(* ------------------------------------------------------------------ *)

let default_stride = 128

(* A checkpoint ladder over the golden execution, plus per-checkpoint
   live-in masks that make convergence comparisons sound: a faulty run
   that agrees with a golden checkpoint on pc, cycle count and every RAM
   byte / register the golden tail still reads before overwriting
   provably replays that tail, so its outcome is computable without
   simulating it. *)
type plan = {
  ladder : Machine.Snapshot.t array; (* ascending cycles, running states *)
  ladder_cycles : int array;
  ram_live : Machine.live_ram array; (* per ladder entry: live-in RAM *)
  reg_mask : int array; (* per ladder entry: live-in register bitmask *)
}

(* Live-in sets by one backward sweep per location kind.  Walking the
   golden run from its last cycle down, [live] holds the locations whose
   first access after the cycles walked so far is a read; once every
   cycle after rung [i] is walked, it is rung [i]'s live-in set.  Within
   a cycle the reads come before the writes, so the sweep applies a
   cycle's writes (dead) before its reads (live). *)
let live_in trace ~registers rungs =
  let nl = Array.length rungs in
  let ram = Array.make nl Bytes.empty and regs = Array.make nl 0 in
  let live = Bytes.make (Trace.ram_size trace) '\000' in
  let mark j k kind c =
    for a = j to k - 1 do
      if Trace.kind trace a = kind then
        Bytes.fill live (Trace.addr trace a) (Trace.width trace a) c
    done
  in
  (* the accesses from [j] on and the cycles after [c] are walked *)
  let j = ref (Trace.length trace) and c = ref (Bytes.length registers / 4) in
  let live_regs = ref 0 in
  for i = nl - 1 downto 0 do
    while !j > 0 && Trace.cycle trace (!j - 1) > rungs.(i) do
      let k = !j and cycle = Trace.cycle trace (!j - 1) in
      while !j > 0 && Trace.cycle trace (!j - 1) = cycle do
        decr j
      done;
      mark !j k Trace.Write '\000';
      mark !j k Trace.Read '\xff'
    done;
    ram.(i) <- Bytes.copy live;
    while !c > rungs.(i) do
      let m = Golden.uses_defs registers !c in
      live_regs := (!live_regs land lnot (m lsr 16)) lor (m land 0xFFFF);
      decr c
    done;
    regs.(i) <- !live_regs
  done;
  (ram, regs)

(* The plan, and a fork of its machine taken before the replay: the
   provider's reset machine, sharing the ladder's compiled code. *)
let build_plan golden ~stride =
  let machine = Machine.create golden.Golden.program in
  let reset = Machine.fork machine in
  let stop, ladder =
    Machine.run_checkpointed machine ~stride
      ~limit:(golden.Golden.cycles + 1)
  in
  (match stop with
  | Machine.Halted -> ()
  | reason ->
      (* The machine is deterministic; a divergence here is a bug. *)
      invalid_arg
        (Format.asprintf "Injector: checkpoint replay stopped with %a"
           Machine.pp_stop_reason reason));
  let ladder_cycles = Array.map Machine.Snapshot.cycle ladder in
  let ram, reg_mask =
    live_in golden.Golden.trace ~registers:(Golden.registers golden)
      ladder_cycles
  in
  ( reset,
    { ladder; ladder_cycles; ram_live = Array.map Machine.live_ram ram; reg_mask }
  )

(* How many ladder entries lie at or below [cycle]: the index of the
   first one strictly ahead of it. *)
let rungs_upto plan cycle =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if plan.ladder_cycles.(mid) <= cycle then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length plan.ladder_cycles)

(* Outcome of a run that provably re-converged with the golden
   execution at ladder entry [snap]: the tail replays golden, so splice
   the golden tail onto what the faulty run emitted so far.  Serial
   output and events are execution history, not machine state, so the
   splice is sound even when the prefixes disagree — the run just
   carries its corrupted prefix under the golden tail. *)
let spliced_outcome golden machine (snap : Machine.Snapshot.t) =
  let mark = Machine.Snapshot.serial_length snap in
  let event_count =
    Machine.event_count machine
    + (golden.Golden.event_count - Machine.Snapshot.event_count snap)
  in
  let golden_output = golden.Golden.output in
  let output =
    if Machine.serial_agrees machine ~prefix:golden_output ~len:mark then
      golden_output (* tail splice yields exactly the golden output *)
    else
      Machine.serial_output machine
      ^ String.sub golden_output mark (String.length golden_output - mark)
  in
  Outcome.classify ~golden_output ~golden_event_count:golden.Golden.event_count
    ~stop:Machine.Halted ~output ~event_count

(* ------------------------------------------------------------------ *)
(* Exit accounting                                                    *)
(* ------------------------------------------------------------------ *)

type exit_kind = Stopped | Ladder_splice | Watchdog | Memo_hit

let exit_kinds = [ Stopped; Ladder_splice; Watchdog; Memo_hit ]

let exit_index = function
  | Stopped -> 0
  | Ladder_splice -> 1
  | Watchdog -> 2
  | Memo_hit -> 3

let exit_kind_name = function
  | Stopped -> "stop"
  | Ladder_splice -> "ladder"
  | Watchdog -> "watchdog"
  | Memo_hit -> "memo"

(* One per session, plain ints: a session is driven by one domain, and
   the provider sums its sessions' tallies only when asked. *)
type tally = {
  t_exits : int array;
  t_cycles : int array;
  mutable t_lookups : int;
  mutable t_inserts : int;
}

let tally_create () =
  let n = List.length exit_kinds in
  {
    t_exits = Array.make n 0;
    t_cycles = Array.make n 0;
    t_lookups = 0;
    t_inserts = 0;
  }

(* ------------------------------------------------------------------ *)
(* Memo of faulty states                                              *)
(* ------------------------------------------------------------------ *)

(* Exact keys of faulty machine states at ladder rungs, mapped to the
   outcome of the run that reached them: {!Machine.encode_diff} against
   that rung's snapshot, whose process-unique id stands for the
   provider and the rung.  Equal keys mean equal machines at equal
   cycles (and, with the serial check in [memo_probe], equal output so
   far), so the runs end identically.

   One table per process, shared by every provider and domain, in two
   generations.  A generation is an arena of entries (key length, key
   bytes, outcome) and an open-addressing index of arena offsets tagged
   with 16 hash bits; lookups compare key bytes exactly, the hash only
   picks the slot.  Inserts go to the young generation; when it is
   full it becomes the old one and the previous old one is dropped.  A
   hit in the old generation is copied into the young one, so states
   that keep recurring survive the drop.  Nothing here is scanned by
   the GC, and the table's bytes are fixed whatever the number of
   cells or providers. *)

(* Arena bytes per generation; each also has an index of
   [memo_arena / 32] slots, a quarter of the arena in bytes, so the
   memo holds at most 5 MiB.  Measured on sync2 x SUM+DMR, the
   costliest paper-fig2 cell, on a 2-core x86-64 host: a key averages
   ~70 bytes, so a generation keeps ~30k states.  Its serial scan took
   19.8 s without the memo, 9.5 s with 1 MiB arenas, 8.6 s with 2 MiB,
   6.9 s with 4 MiB and 6.6 s with 8 MiB (which never dropped a
   generation). *)
let memo_arena = 1 lsl 21

(* A state that differs from its rung in more bytes than this is not
   looked up: its key would cost more memory than a hit saves. *)
let memo_key_max = 512

(* Outside the OCaml heap: a table this size inside it would raise
   the GC's heap target by its own size again. *)
type generation = {
  arena : (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable used : int;
  slots : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* 0 = empty, else (offset + 1) lsl 16 lor hash bits *)
  mutable entries : int;
}

let generation () =
  let slots = Bigarray.(Array1.create int c_layout (memo_arena / 32)) in
  Bigarray.Array1.fill slots 0;
  {
    arena = Bigarray.(Array1.create int8_unsigned c_layout memo_arena);
    used = 0;
    slots;
    entries = 0;
  }

(* The slot holding [key], or the empty slot where it would go. *)
let slot_of g key h =
  let mask = Bigarray.Array1.dim g.slots - 1 in
  let len = String.length key in
  let tag = (h lsr 14) land 0xFFFF in
  let a = g.arena in
  let same off =
    a.{off} lor (a.{off + 1} lsl 8) = len
    &&
    let rec eq i =
      i >= len
      || a.{off + 2 + i} = Char.code (String.unsafe_get key i) && eq (i + 1)
    in
    eq 0
  in
  let rec probe i =
    let v = g.slots.{i} in
    if v = 0 || (v land 0xFFFF = tag && same ((v lsr 16) - 1)) then i
    else probe ((i + 1) land mask)
  in
  probe (h land mask)

let find_in g key h =
  let v = g.slots.{slot_of g key h} in
  if v = 0 then None
  else
    let off = (v lsr 16) - 1 in
    Some (Outcome.of_index g.arena.{off + 2 + String.length key})

(* Append unless present; [false] iff [g] has no room left. *)
let add_to g key h o =
  let i = slot_of g key h in
  if g.slots.{i} <> 0 then true
  else
    let len = String.length key in
    if
      g.used + len + 3 > Bigarray.Array1.dim g.arena
      || 2 * (g.entries + 1) > Bigarray.Array1.dim g.slots
    then false
    else begin
      let a = g.arena and off = g.used in
      a.{off} <- len land 0xFF;
      a.{off + 1} <- len lsr 8;
      String.iteri (fun k c -> a.{off + 2 + k} <- Char.code c) key;
      a.{off + 2 + len} <- Outcome.index o;
      g.used <- off + len + 3;
      g.entries <- g.entries + 1;
      g.slots.{i} <- ((off + 1) lsl 16) lor ((h lsr 14) land 0xFFFF);
      true
    end

type memo = {
  lock : Mutex.t;
  mutable young : generation option; (* allocated on first insert *)
  mutable old : generation option;
  mutable resets : int; (* generations dropped *)
}

let memo = { lock = Mutex.create (); young = None; old = None; resets = 0 }

(* Store [o] under [key] in the young generation; when it is full, the
   old generation's storage is cleared and becomes the young one, so
   the memo never allocates more than two. *)
let insert key h o =
  match memo.young with
  | Some g when add_to g key h o -> ()
  | young ->
      let g =
        match memo.old with
        | Some g ->
            Bigarray.Array1.fill g.slots 0;
            g.used <- 0;
            g.entries <- 0;
            memo.resets <- memo.resets + 1;
            g
        | None -> generation ()
      in
      ignore (add_to g key h o);
      memo.old <- young;
      memo.young <- Some g

let memo_find key =
  let h = Hashtbl.hash key in
  Mutex.protect memo.lock (fun () ->
      let find = function Some g -> find_in g key h | None -> None in
      match find memo.young with
      | Some _ as hit -> hit
      | None ->
          let hit = find memo.old in
          Option.iter (insert key h) hit;
          hit)

let memo_add key o =
  let h = Hashtbl.hash key in
  Mutex.protect memo.lock (fun () -> insert key h o)

(* Process-wide: dropped generations and bytes held. *)
let memo_usage () =
  Mutex.protect memo.lock (fun () ->
      let bytes = function
        | Some g -> Bigarray.Array1.(dim g.arena + (8 * dim g.slots))
        | None -> 0
      in
      (memo.resets, bytes memo.young + bytes memo.old))

(* Probe every [memo_every]-th rung: each probe costs a RAM diff and a
   lock, and each miss a key.  The serial sync2 x SUM+DMR scan above
   (2 MiB arenas) took 17.6, 10.8, 7.4, 7.8 and 9.2 s probing every
   1st, 2nd, 4th, 8th and 16th rung; every 8th stores half the keys of
   every 4th.  The probed rungs are the 8th, 16th, ...: a program
   shorter than 8 strides, whose runs are short anyway, never
   allocates the memo. *)
let memo_every = 8

let finish_planned plan golden ~probe machine =
  let limit = Golden.timeout_limit golden in
  let nl = Array.length plan.ladder in
  let rec go i =
    (* Past the ladder nothing ends a running experiment early: it
       simulates to the watchdog, as replay does. *)
    Machine.run_until machine
      ~cycle:(if i < nl then plan.ladder_cycles.(i) else limit);
    match Machine.stopped machine with
    | Some stop -> (Stopped, classify_stopped golden machine stop)
    | None when i >= nl ->
        (Watchdog, classify_stopped golden machine Machine.Cycle_limit)
    | None -> (
        if
          Machine.converges_with machine plan.ladder.(i)
            ~ram_live:plan.ram_live.(i) ~reg_mask:plan.reg_mask.(i)
        then (Ladder_splice, spliced_outcome golden machine plan.ladder.(i))
        else
          match probe i machine with
          | Some o -> (Memo_hit, o)
          | None -> go (i + 1))
  in
  go (rungs_upto plan (Machine.cycle machine))

(* ------------------------------------------------------------------ *)
(* Session providers                                                  *)
(* ------------------------------------------------------------------ *)

type impl = Replay | Planned of plan

type provider = {
  p_golden : Golden.t;
  reset : Machine.t; (* never run: each session forks it, so the code
                        compiles once per provider *)
  impl : impl;
  tallies_lock : Mutex.t;
  mutable tallies : tally list; (* one per session *)
}

let make golden ~reset impl =
  {
    p_golden = golden;
    reset;
    impl;
    tallies_lock = Mutex.create ();
    tallies = [];
  }

let replay golden =
  make golden ~reset:(Machine.create golden.Golden.program) Replay

let plan ?(stride = default_stride) golden =
  if stride <= 0 then replay golden
  else
    let reset, plan = build_plan golden ~stride in
    make golden ~reset (Planned plan)

let ladder_cycles p =
  match p.impl with Replay -> [||] | Planned plan -> plan.ladder_cycles

type counts = {
  experiments : int array;
  cycles : int array;
  memo_lookups : int;
  memo_inserts : int;
  memo_resets : int;
  memo_bytes : int;
}

let counts p =
  let sum = tally_create () in
  List.iter
    (fun t ->
      Array.iteri (fun k n -> sum.t_exits.(k) <- sum.t_exits.(k) + n) t.t_exits;
      Array.iteri (fun k n -> sum.t_cycles.(k) <- sum.t_cycles.(k) + n) t.t_cycles;
      sum.t_lookups <- sum.t_lookups + t.t_lookups;
      sum.t_inserts <- sum.t_inserts + t.t_inserts)
    (Mutex.protect p.tallies_lock (fun () -> p.tallies));
  let memo_resets, memo_bytes = memo_usage () in
  {
    experiments = sum.t_exits;
    cycles = sum.t_cycles;
    memo_lookups = sum.t_lookups;
    memo_inserts = sum.t_inserts;
    memo_resets;
    memo_bytes;
  }

let exits c kind = c.experiments.(exit_index kind)

let pp_counts ppf c =
  List.iter
    (fun kind ->
      let k = exit_index kind in
      Format.fprintf ppf "%-10s %8d exp %12d cycles@." (exit_kind_name kind)
        c.experiments.(k) c.cycles.(k))
    exit_kinds;
  Format.fprintf ppf "memo       %8d lookups %d inserts %d resets %d bytes@."
    c.memo_lookups c.memo_inserts c.memo_resets c.memo_bytes

type session = {
  provider : provider;
  mutable pristine : Machine.t;
  mutable at : int; (* cycles executed on the pristine machine *)
  tally : tally;
  key : Buffer.t; (* scratch for memo keys *)
  mutable pending : string list; (* memo keys the current run missed *)
}

let session provider =
  let tally = tally_create () in
  Mutex.protect provider.tallies_lock (fun () ->
      provider.tallies <- tally :: provider.tallies);
  {
    provider;
    pristine = Machine.fork provider.reset;
    at = 0;
    tally;
    key = Buffer.create 128;
    pending = [];
  }

(* Rolling [hop_min] cycles costs about as much as one checkpoint
   restore; hop only when the restore actually skips work. *)
let hop_min = 64

let advance s target =
  if target < s.at then
    invalid_arg "Injector.session_run_flip: injection cycles must not decrease";
  (match s.provider.impl with
  | Planned plan when target > s.at ->
      (* Greatest ladder entry at or below [target]. *)
      let i = rungs_upto plan target - 1 in
      if i >= 0 && plan.ladder_cycles.(i) >= s.at + hop_min then begin
        s.pristine <- Machine.Snapshot.restore plan.ladder.(i);
        s.at <- plan.ladder_cycles.(i)
      end
  | Planned _ | Replay -> ());
  if target > s.at then begin
    Machine.run_until s.pristine ~cycle:target;
    s.at <- target
  end

(* The memo probe at rung [i] of a run that missed the splice there:
   the stored outcome of an earlier run that reached the same state, or
   [None] after remembering the key.  Only runs whose output so far is
   golden's prefix are keyed, so the key need not carry the output. *)
let memo_probe s plan i machine =
  let golden = s.provider.p_golden in
  if
    i mod memo_every <> memo_every - 1
    || not
         (Machine.serial_agrees machine ~prefix:golden.Golden.output
            ~len:(Machine.serial_length machine))
  then None
  else begin
    let buf = s.key in
    Buffer.clear buf;
    Machine.encode_diff buf machine plan.ladder.(i);
    if Buffer.length buf > memo_key_max then None
    else begin
      let key = Buffer.contents buf in
      s.tally.t_lookups <- s.tally.t_lookups + 1;
      match memo_find key with
      | Some _ as hit -> hit
      | None ->
          s.pending <- key :: s.pending;
          None
    end
  end

let record s kind ~from machine =
  let k = exit_index kind in
  s.tally.t_exits.(k) <- s.tally.t_exits.(k) + 1;
  s.tally.t_cycles.(k) <- s.tally.t_cycles.(k) + (Machine.cycle machine - from)

let session_run_flip s ~cycle ~flip =
  advance s (cycle - 1);
  let machine = Machine.fork s.pristine in
  let from = Machine.cycle machine in
  flip machine;
  let golden = s.provider.p_golden in
  match s.provider.impl with
  | Replay ->
      let o = finish golden machine in
      record s
        (if Machine.stopped machine = Some Machine.Cycle_limit then Watchdog
         else Stopped)
        ~from machine;
      o
  | Planned plan ->
      s.pending <- [];
      let kind, o =
        finish_planned plan golden ~probe:(memo_probe s plan) machine
      in
      record s kind ~from machine;
      List.iter (fun key -> memo_add key o) s.pending;
      s.tally.t_inserts <- s.tally.t_inserts + List.length s.pending;
      o
