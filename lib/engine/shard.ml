type sizing = By_count | By_weight

let sizing_tag = function By_count -> "count" | By_weight -> "weight"

type t = { id : int; lo : int; hi : int }

type plan = {
  order : int array;
  shards : t array;
  shard_size : int;
  sizing : sizing;
  classes_total : int;
}

let classes_in s = s.hi - s.lo

let default_shard_size ~classes = max 1 ((classes + 127) / 128)

let plan ?shard_size ?(weighted = false) (classes : Defuse.byte_class array) =
  let total = Array.length classes in
  let shard_size =
    match shard_size with
    | None -> default_shard_size ~classes:total
    | Some n when n >= 1 -> n
    | Some n -> invalid_arg (Printf.sprintf "Shard.plan: shard_size %d" n)
  in
  (* Identical ranking to the serial Faultspace.scan: a plain sort by t_end.
     Ties may land in any order — harmless, because results are merged by
     class index, not by rank — but the sort is deterministic for a given
     input, which keeps journal shard contents reproducible. *)
  let order = Array.init total (fun i -> i) in
  Array.sort
    (fun a b -> compare classes.(a).Defuse.t_end classes.(b).Defuse.t_end)
    order;
  let shards =
    if not weighted then
      let shard_count = (total + shard_size - 1) / shard_size in
      Array.init shard_count (fun id ->
          { id; lo = id * shard_size; hi = min total ((id + 1) * shard_size) })
    else begin
      (* Cut by estimated conducted cycles instead of class count.  An
         experiment injected at t_end costs about t_end cycles of forward
         execution before the flip, so rank r is weighted t_end(r) + 1.
         Target the shard count the count-based policy would produce and
         cut greedily once a shard's weight reaches the even share — late
         (expensive) ranks then land in smaller shards, evening out the
         tail on wide campaigns. *)
      let weight r = classes.(order.(r)).Defuse.t_end + 1 in
      let total_weight = ref 0 in
      for r = 0 to total - 1 do
        total_weight := !total_weight + weight r
      done;
      let target_shards = max 1 ((total + shard_size - 1) / shard_size) in
      let target = max 1 ((!total_weight + target_shards - 1) / target_shards) in
      let cuts = ref [] in
      let acc = ref 0 in
      for r = 0 to total - 1 do
        acc := !acc + weight r;
        if !acc >= target then begin
          cuts := (r + 1) :: !cuts;
          acc := 0
        end
      done;
      let cuts =
        match !cuts with
        | hi :: _ when hi = total -> List.rev !cuts
        | rest -> List.rev (total :: rest)
      in
      let bounds = Array.of_list cuts in
      Array.init (Array.length bounds) (fun id ->
          { id; lo = (if id = 0 then 0 else bounds.(id - 1)); hi = bounds.(id) })
    end
  in
  let shards = if total = 0 then [||] else shards in
  {
    order;
    shards;
    shard_size;
    sizing = (if weighted then By_weight else By_count);
    classes_total = total;
  }
