type source =
  | Build of (unit -> Program.t)
  | Analysed_memory of Golden.t
  | Analysed_registers of Regspace.t

type sharding = { shard_size : int option; weighted : bool }

type durability = {
  journal : string option;
  resume : bool;
  catalogue : string option;
}

type supervision = {
  shard_timeout : float option;
  max_retries : int;
  quarantine : bool;
}

type acceleration = { cache : string option; checkpoint_stride : int option }

type policy = {
  sharding : sharding;
  durability : durability;
  supervision : supervision;
  acceleration : acceleration;
}

let default_supervision =
  { shard_timeout = None; max_retries = 0; quarantine = false }

let default_policy =
  {
    sharding = { shard_size = None; weighted = false };
    durability = { journal = None; resume = false; catalogue = None };
    supervision = default_supervision;
    acceleration = { cache = None; checkpoint_stride = None };
  }

let make_policy ?shard_size ?(weighted = false) ?journal ?(resume = false)
    ?catalogue ?shard_timeout ?(max_retries = 0) ?(quarantine = false)
    ?cache ?checkpoint_stride () =
  {
    sharding = { shard_size; weighted };
    durability = { journal; resume; catalogue };
    supervision = { shard_timeout; max_retries; quarantine };
    acceleration = { cache; checkpoint_stride };
  }

let supervised policy =
  policy.supervision.shard_timeout <> None
  || policy.supervision.max_retries > 0
  || policy.supervision.quarantine

type t = {
  benchmark : string;
  variant : string;
  model : Faultspace.model;
  source : source;
  limit : int option;
  policy : policy;
}

let label t =
  match t.model with
  | Faultspace.Bitflip_mem -> Printf.sprintf "%s/%s" t.benchmark t.variant
  | Faultspace.Bitflip_reg ->
      Printf.sprintf "%s/%s@registers" t.benchmark t.variant
  | m -> Printf.sprintf "%s/%s@%s" t.benchmark t.variant (Faultspace.tag m)

let build ?(variant = "baseline") ?limit ?(policy = default_policy) ~model
    ~benchmark build =
  { benchmark; variant; model; source = Build build; limit; policy }

let memory ?variant ?limit ?policy ~benchmark b =
  build ?variant ?limit ?policy ~model:Faultspace.Bitflip_mem ~benchmark b

let of_golden ?(variant = "baseline") ?(policy = default_policy)
    ?(model = Faultspace.Bitflip_mem) golden =
  {
    benchmark = golden.Golden.program.Program.name;
    variant;
    model;
    source = Analysed_memory golden;
    limit = None;
    policy;
  }

let with_policy policy t = { t with policy }
