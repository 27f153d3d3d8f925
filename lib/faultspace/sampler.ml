type estimate = {
  population : int;
  samples : int;
  failures : int;
  outcome_counts : (Outcome.t * int) list;
  distinct : int;
}

let failure_fraction e =
  if e.samples = 0 then 0.0
  else float_of_int e.failures /. float_of_int e.samples

type draw = { population : int; slots : int option array }

let uniform_raw rng ~samples (cell : Faultspace.cell) =
  let cycles = cell.Faultspace.golden.Golden.cycles in
  let slots =
    Array.init samples (fun _ ->
        let cycle = 1 + Prng.int rng cycles in
        let bit = Prng.int rng cell.Faultspace.rows in
        cell.Faultspace.locate { Faultspace.cycle; bit })
  in
  { population = Faultspace.space cell; slots }

let uniform_effective rng ~samples (cell : Faultspace.cell) =
  let classes = cell.Faultspace.classes in
  let n = Array.length classes in
  (* Prefix sums of effective coordinates per class: each of its real
     (non-padding) slots stands for the class's weight. *)
  let real i = min 8 (cell.Faultspace.slots - (8 * i)) in
  let prefix = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) + (real i * Defuse.weight classes.(i))
  done;
  let population = prefix.(n) in
  let pick () =
    let x = Prng.int rng population in
    (* Binary search: greatest i with prefix.(i) <= x. *)
    let rec search lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if prefix.(mid) <= x then search mid hi else search lo mid
    in
    let i = search 0 n in
    Some ((8 * i) + ((x - prefix.(i)) mod real i))
  in
  {
    population;
    slots = (if population = 0 then [||] else Array.init samples (fun _ -> pick ()));
  }

let biased_per_class rng ~samples (cell : Faultspace.cell) =
  let n = Array.length cell.Faultspace.classes in
  let slots =
    if n = 0 then [||]
    else
      Array.init samples (fun _ ->
          let c = Prng.int rng n in
          Some ((8 * c) + Prng.int rng 8))
  in
  { population = Faultspace.space cell; slots }

(* The draw's distinct experiment slots, ascending. *)
let distinct_slots draw =
  List.sort_uniq Int.compare (List.filter_map Fun.id (Array.to_list draw.slots))

let estimate draw outcome_of =
  let tally = Outcome.tally_create () in
  Array.iter
    (fun slot ->
      Outcome.tally_add tally
        (match slot with None -> Outcome.No_effect | Some s -> outcome_of s))
    draw.slots;
  {
    population = draw.population;
    samples = Array.length draw.slots;
    failures = Outcome.tally_failures tally;
    outcome_counts = Outcome.tally_to_list tally;
    distinct = List.length (distinct_slots draw);
  }

let conduct (cell : Faultspace.cell) draw =
  let classes = cell.Faultspace.classes in
  (* The distinct slots, in the injection order a session needs. *)
  let injection_order a b =
    match Int.compare classes.(a / 8).Defuse.t_end classes.(b / 8).Defuse.t_end with
    | 0 -> Int.compare a b
    | c -> c
  in
  let slots = Array.of_list (List.sort injection_order (distinct_slots draw)) in
  let outcomes = Hashtbl.create (Array.length slots) in
  Array.iter2 (Hashtbl.replace outcomes) slots
    (Faultspace.conduct_slots cell slots);
  estimate draw (Hashtbl.find outcomes)

let read (scan : Scan.t) draw =
  estimate draw (fun s -> scan.Scan.experiments.(s).Scan.outcome)
