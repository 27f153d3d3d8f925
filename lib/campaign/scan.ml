type experiment = {
  byte : int;
  t_start : int;
  t_end : int;
  bit_in_byte : int;
  outcome : Outcome.t;
}

let experiment_weight e = e.t_end - e.t_start + 1

type t = {
  name : string;
  variant : string;
  cycles : int;
  ram_bytes : int;
  experiments : experiment array;
  benign_weight : int;
}

let fault_space_size t =
  Array.fold_left
    (fun acc e -> acc + experiment_weight e)
    t.benign_weight t.experiments

let of_outcomes ~variant ~ram_bytes ~benign_weight ?slots golden
    (classes : Defuse.byte_class array) outcomes =
  let slots = Option.value slots ~default:(8 * Array.length classes) in
  let experiments =
    Array.init (8 * Array.length classes) (fun idx ->
        let c = classes.(idx / 8) in
        {
          byte = c.Defuse.byte;
          t_start = c.Defuse.t_start;
          (* a padding slot covers the empty interval: weight 0 *)
          t_end = (if idx < slots then c.Defuse.t_end else c.Defuse.t_start - 1);
          bit_in_byte = idx mod 8;
          outcome = outcomes.(idx);
        })
  in
  {
    name = golden.Golden.program.Program.name;
    variant;
    cycles = golden.Golden.cycles;
    ram_bytes;
    experiments;
    benign_weight;
  }
