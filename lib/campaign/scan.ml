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

type progress = done_:int -> total:int -> tally:Outcome.tally -> unit

let no_progress ~done_:_ ~total:_ ~tally:_ = ()

let conduct_at_t_end inject session (c : Defuse.byte_class) ~bit_in_byte =
  inject session
    { Coordspace.cycle = c.Defuse.t_end; bit = (c.Defuse.byte * 8) + bit_in_byte }

let provider_for golden = function
  | Some p ->
      if Injector.provider_golden p != golden then
        invalid_arg "provider was built over a different golden run";
      p
  | None -> Injector.plan golden

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

let serial ?(variant = "baseline") ?provider ?(progress = no_progress)
    ~ram_bytes ~benign_weight ?slots ~conduct golden
    (classes : Defuse.byte_class array) =
  (* Sessions require non-decreasing injection cycles; classes may be
     sorted by (byte, t_start), so visit a copy sorted by t_end. *)
  let order = Array.init (Array.length classes) (fun i -> i) in
  Array.sort
    (fun a b -> compare classes.(a).Defuse.t_end classes.(b).Defuse.t_end)
    order;
  let session = Injector.session (provider_for golden provider) in
  let total = Array.length classes in
  let outcomes = Array.make (8 * total) Outcome.No_effect in
  let tally = Outcome.tally_create () in
  Array.iteri
    (fun rank class_index ->
      let c = classes.(class_index) in
      for bit_in_byte = 0 to 7 do
        let outcome = conduct session c ~bit_in_byte in
        Outcome.tally_add tally outcome;
        outcomes.((class_index * 8) + bit_in_byte) <- outcome
      done;
      progress ~done_:(rank + 1) ~total ~tally)
    order;
  of_outcomes ~variant ~ram_bytes ~benign_weight ?slots golden classes
    outcomes

let pruned ?variant ?provider ?progress golden =
  let defuse = golden.Golden.defuse in
  serial ?variant ?provider ?progress
    ~ram_bytes:golden.Golden.program.Program.ram_size
    ~benign_weight:(Defuse.known_benign_weight defuse)
    ~conduct:(conduct_at_t_end Injector.session_run_at)
    golden
    (Defuse.experiment_classes defuse)
