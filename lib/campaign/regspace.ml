let register_count = 15
let pseudo_ram_bytes = 4 * register_count

type t = {
  golden : Golden.t;
  classes : Defuse.byte_class array;
  benign_weight : int;
}

let coord_of_bit bit =
  let reg = 1 + (bit / 32) in
  (reg, bit mod 32)

(* [f cycle r read] for every cycle's access to each register [r] in
   1–15, in execution order; [read] is false for a write alone, so a
   register read and written in one cycle is one access, a read. *)
let iter_accesses ~cycles registers f =
  for cycle = 1 to cycles do
    let mask = Golden.uses_defs registers cycle in
    let reads = mask land 0xFFFE in
    let touched = ref ((reads lor (mask lsr 16)) lsr 1) and r = ref 1 in
    while !touched <> 0 do
      if !touched land 1 <> 0 then f cycle !r (reads land (1 lsl !r) <> 0);
      touched := !touched lsr 1;
      incr r
    done
  done

(* Two passes over the register trace, with the previous access cycle
   of each register in [prev] (0 = reset).  Every access ends an
   interval of its register: one that ends in a read (the read sees
   the old value even when the cycle also writes it) is an experiment,
   every other interval is benign.  Pass 1 counts each register's
   experiments and sums their weight; pass 2 writes an experiment of
   register [r] as its four byte classes [4 (r - 1) … 4 (r - 1) + 3],
   each byte's classes after the previous byte's, so the array comes
   out in (byte, t_start) order, as {!Defuse} sorts a pseudo-memory's. *)
let partition ~cycles registers =
  let prev = Array.make (register_count + 1) 0 in
  let count = Array.make (register_count + 1) 0 in
  let experiment_weight = ref 0 in
  iter_accesses ~cycles registers (fun cycle r read ->
      if read then begin
        count.(r) <- count.(r) + 1;
        experiment_weight := !experiment_weight + cycle - prev.(r)
      end;
      prev.(r) <- cycle);
  (* [next.(r)]: the slot of register [r]'s next experiment among its
     first byte's classes *)
  let next = Array.make (register_count + 1) 0 in
  for r = 2 to register_count do
    next.(r) <- next.(r - 1) + (4 * count.(r - 1))
  done;
  let classes =
    Array.make
      (next.(register_count) + (4 * count.(register_count)))
      { Defuse.byte = 0; t_start = 1; t_end = cycles; kind = Defuse.Experiment }
  in
  Array.fill prev 0 (register_count + 1) 0;
  iter_accesses ~cycles registers (fun cycle r read ->
      if read then begin
        let slot = next.(r) and t_start = prev.(r) + 1 in
        for b = 0 to 3 do
          classes.(slot + (b * count.(r))) <-
            {
              Defuse.byte = (4 * (r - 1)) + b;
              t_start;
              t_end = cycle;
              kind = Defuse.Experiment;
            }
        done;
        next.(r) <- slot + 1
      end;
      prev.(r) <- cycle);
  (* The benign intervals (ending in a write, the dormant tail, a
     register never touched) cover the rest of every register's
     cycles, 32 bits each. *)
  (classes, 32 * ((register_count * cycles) - !experiment_weight))

let of_golden golden =
  let classes, benign_weight =
    partition ~cycles:golden.Golden.cycles (Golden.registers golden)
  in
  { golden; classes; benign_weight }

let analyze ?limit program = of_golden (Golden.run ?limit program)
