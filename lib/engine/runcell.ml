exception Journal_mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Journal_mismatch s)) fmt

(* ------------------------------------------------------------------ *)
(* Analysed cells                                                     *)
(* ------------------------------------------------------------------ *)

(* The engine's cell is the fault space's own.  The re-export lets the
   repository benchmark (bench/e2e/fibench.ml) keep reading
   [Runcell]-qualified fields; it goes when the benchmark itself may
   change. *)
type cell = Faultspace.cell = {
  model : Faultspace.model;
  golden : Golden.t;
  classes : Defuse.byte_class array;
  ram_bytes : int;
  benign_weight : int;
  rows : int;
  slots : int;
  locate : Faultspace.coord -> int option;
  inject : Injector.session -> Faultspace.coord -> Outcome.t;
  conduct :
    Injector.session -> Defuse.byte_class -> bit_in_byte:int -> Outcome.t;
  provider : unit -> Injector.provider;
}

let analyse (spec : Spec.t) =
  let model = spec.Spec.model in
  let cell =
    match spec.Spec.source with
    | Spec.Build build ->
        Faultspace.analyse ?limit:spec.Spec.limit model (build ())
    | Spec.Analysed_memory golden
    | Spec.Analysed_registers { Regspace.golden; _ } ->
        Faultspace.of_golden model golden
  in
  match spec.Spec.policy.Spec.acceleration.Spec.checkpoint_stride with
  | Some stride -> Faultspace.with_stride stride cell
  | None -> cell

(* ------------------------------------------------------------------ *)
(* Campaign identity and journal payloads                             *)
(* ------------------------------------------------------------------ *)

(* [string_of_int n]'s characters folded into the digest [crc], with no
   string in between: the fingerprint text holds three decimals per
   class. *)
let rec crc_decimal crc n =
  if n < 0 then
    let s = string_of_int n in
    Crc32.update crc s ~pos:0 ~len:(String.length s)
  else
    let crc = if n >= 10 then crc_decimal crc (n / 10) else crc in
    Crc32.add_char crc (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* The CRC-32 of the text "<tag>|<name>|<cycles>|<ram>|<shard size>|
   <sizing>|" followed by "<byte>,<t_start>,<t_end>;" per class, streamed
   into the digest rather than built.  The legacy models keep their
   pre-subsystem tags ("mem"/"reg"), so every fingerprint — and
   therefore every journal and cache key — they ever produced stays
   byte-identical. *)
let fingerprint_cell cell ~(plan : Shard.plan) =
  let head =
    Printf.sprintf "%s|%s|%d|%d|%d|%s|" (Faultspace.tag cell.model)
      cell.golden.Golden.program.Program.name cell.golden.Golden.cycles
      cell.ram_bytes plan.Shard.shard_size
      (Shard.sizing_tag plan.Shard.sizing)
  in
  Array.fold_left
    (fun crc (c : Defuse.byte_class) ->
      let crc = Crc32.add_char (crc_decimal crc c.Defuse.byte) ',' in
      let crc = Crc32.add_char (crc_decimal crc c.Defuse.t_start) ',' in
      Crc32.add_char (crc_decimal crc c.Defuse.t_end) ';')
    (Crc32.string head) cell.classes

let plan_of_policy (policy : Spec.policy) classes =
  Shard.plan
    ?shard_size:policy.Spec.sharding.Spec.shard_size
    ~weighted:policy.Spec.sharding.Spec.weighted classes

(* The header's version string is "v2" for the two legacy models —
   keeping their journals byte-identical to pre-subsystem runs — and
   "v3" for every model added by the Faultspace subsystem.  The field
   layout is identical either way; the [space=] value is the model tag. *)
let header_payload cell ~(plan : Shard.plan) ~fp =
  let model = cell.model in
  Printf.sprintf
    "fi-engine %s space=%s sizing=%s cycles=%d ram_bytes=%d classes=%d \
     shard_size=%d shards=%d fingerprint=%s name=%s"
    (if Faultspace.legacy model then "v2" else "v3")
    (Faultspace.tag model)
    (Shard.sizing_tag plan.Shard.sizing)
    cell.golden.Golden.cycles cell.ram_bytes plan.Shard.classes_total
    plan.Shard.shard_size
    (Array.length plan.Shard.shards)
    (Crc32.to_hex fp) cell.golden.Golden.program.Program.name

let key_int key tok =
  let p = key ^ "=" in
  let plen = String.length p in
  if String.length tok > plen && String.sub tok 0 plen = p then
    int_of_string_opt (String.sub tok plen (String.length tok - plen))
  else None

let header_shard_count header =
  (* "... shards=N ..." somewhere in a v2/v3 header payload. *)
  List.find_map (key_int "shards") (String.split_on_char ' ' header)

let header_model_tag header =
  (* "... space=<tag> ..." of an engine campaign header — [None] for
     anything that is not one (worker segments, foreign files). *)
  if String.length header < 10 || String.sub header 0 10 <> "fi-engine " then
    None
  else
    List.find_map
      (fun tok ->
        if String.length tok > 6 && String.sub tok 0 6 = "space=" then
          Some (String.sub tok 6 (String.length tok - 6))
        else None)
      (String.split_on_char ' ' header)

let journal_model_tag path =
  match Journal.replay path with
  | Some (header, _, _) -> header_model_tag header
  | None -> None

let record_payload (shard : Shard.t) outcomes_buf =
  Printf.sprintf "shard=%d outcomes=%s" shard.Shard.id
    (Bytes.to_string outcomes_buf)

(* [shard=<id> outcomes=<chars>] split into its id and characters. *)
let split_record payload =
  match String.index_opt payload ' ' with
  | Some sp
    when String.length payload > 15 && String.sub payload 0 6 = "shard=" ->
      let rest = String.sub payload (sp + 1) (String.length payload - sp - 1) in
      if String.length rest < 9 || String.sub rest 0 9 <> "outcomes=" then None
      else
        Option.map
          (fun id -> (id, String.sub rest 9 (String.length rest - 9)))
          (int_of_string_opt (String.sub payload 6 (sp - 6)))
  | Some _ | None -> None

let parse_record (plan : Shard.plan) payload =
  match split_record payload with
  | Some (id, outs) when id >= 0 && id < Array.length plan.Shard.shards ->
      let shard = plan.Shard.shards.(id) in
      if
        String.length outs = 8 * Shard.classes_in shard
        && String.for_all (fun c -> Option.is_some (Outcome.of_char c)) outs
      then Some (shard, outs)
      else None
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Supervision records                                                *)
(* ------------------------------------------------------------------ *)

(* Supervision events share the campaign journal with shard records:
   [sup retry ...] / [sup quarantine ...] lines, so a resumed campaign
   knows how many retries a shard has already burned and which shards
   were given up.  The free-form [cause] comes last so it may contain
   spaces; newlines are sanitized away (the journal forbids them). *)

type supervision =
  | Retry of { shard : int; attempt : int; cause : string }
  | Quarantine of { shard : int; attempts : int; cause : string }

let sanitize_cause s =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let supervision_payload = function
  | Retry { shard; attempt; cause } ->
      Printf.sprintf "sup retry shard=%d attempt=%d cause=%s" shard attempt
        (sanitize_cause cause)
  | Quarantine { shard; attempts; cause } ->
      Printf.sprintf "sup quarantine shard=%d attempts=%d cause=%s" shard
        attempts (sanitize_cause cause)

let parse_supervision payload =
  let marker = " cause=" in
  let mlen = String.length marker in
  let n = String.length payload in
  let rec find i =
    if i + mlen > n then None
    else if String.sub payload i mlen = marker then
      Some (String.sub payload 0 i, String.sub payload (i + mlen) (n - i - mlen))
    else find (i + 1)
  in
  (* Only a [sup ...] payload can match: shard records, the bulk of every
     replayed journal, skip the marker search. *)
  match if String.starts_with ~prefix:"sup " payload then find 0 else None with
  | None -> None
  | Some (head, cause) -> (
      match String.split_on_char ' ' head with
      | [ "sup"; "retry"; sh; at ] -> (
          match (key_int "shard" sh, key_int "attempt" at) with
          | Some shard, Some attempt -> Some (Retry { shard; attempt; cause })
          | _ -> None)
      | [ "sup"; "quarantine"; sh; at ] -> (
          match (key_int "shard" sh, key_int "attempts" at) with
          | Some shard, Some attempts ->
              Some (Quarantine { shard; attempts; cause })
          | _ -> None)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Journal completion (compaction's gate)                             *)
(* ------------------------------------------------------------------ *)

let journal_finished path =
  match Journal.replay path with
  | Some (header, records, Journal.Clean) -> (
      match header_shard_count header with
      | None -> false (* not an engine campaign header *)
      | Some total ->
          let seen = Array.make (max 1 total) false in
          List.iter
            (fun payload ->
              match split_record payload with
              | Some (id, _) when id >= 0 && id < total -> seen.(id) <- true
              | Some _ | None -> ())
            records;
          total = 0 || Array.for_all Fun.id seen)
  | Some (_, _, (Journal.Torn_tail _ | Journal.Corrupt_record _)) | None ->
      false

(* ------------------------------------------------------------------ *)
(* The single-shard conductor                                         *)
(* ------------------------------------------------------------------ *)

let conduct_shard ?(on_class = fun ~class_index:_ _ -> ()) cell
    ~(classes : Defuse.byte_class array) ~(plan : Shard.plan)
    (shard : Shard.t) =
  let session = Injector.session (cell.provider ()) in
  let n = Shard.classes_in shard in
  let buf = Bytes.create (8 * n) in
  for k = 0 to n - 1 do
    let class_index = plan.Shard.order.(shard.Shard.lo + k) in
    let c = classes.(class_index) in
    for bit_in_byte = 0 to 7 do
      let o = cell.conduct session c ~bit_in_byte in
      Bytes.set buf ((8 * k) + bit_in_byte) (Outcome.to_char o)
    done;
    on_class ~class_index (Bytes.sub_string buf (8 * k) 8)
  done;
  buf
