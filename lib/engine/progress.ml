type snapshot = {
  classes_done : int;
  classes_total : int;
  experiments_done : int;
  shards_done : int;
  shards_total : int;
  resumed_classes : int;
  retries : int;
  kills : int;
  starts : int;
  quarantined_shards : int;
  quarantined_classes : int;
  elapsed : float;
  rate : float;
  eta : float option;
  tally : Outcome.tally;
}

type hook = snapshot -> unit

(* Quarantined classes will never be conducted: a degraded campaign
   that has accounted every other class is finished, not 99% done. *)
let finished s = s.classes_done + s.quarantined_classes >= s.classes_total

let make ~classes_done ~classes_total ~shards_done ~shards_total
    ~resumed_classes ?(retries = 0) ?(kills = 0) ?(starts = 0)
    ?(quarantined_shards = 0) ?(quarantined_classes = 0) ~elapsed ~tally () =
  let conducted = 8 * (classes_done - resumed_classes) in
  let rate =
    if conducted > 0 && elapsed > 0. then float_of_int conducted /. elapsed
    else 0.
  in
  let remaining = classes_total - classes_done - quarantined_classes in
  let eta =
    if rate <= 0. || remaining <= 0 then None
    else Some (float_of_int (8 * remaining) /. rate)
  in
  {
    classes_done;
    classes_total;
    experiments_done = 8 * classes_done;
    shards_done;
    shards_total;
    resumed_classes;
    retries;
    kills;
    starts;
    quarantined_shards;
    quarantined_classes;
    elapsed;
    rate;
    eta;
    tally = Outcome.tally_copy tally;
  }

let pp_duration ppf seconds =
  if seconds < 60. then Format.fprintf ppf "%.1fs" seconds
  else if seconds < 3600. then
    Format.fprintf ppf "%dm%02ds"
      (int_of_float seconds / 60)
      (int_of_float seconds mod 60)
  else
    Format.fprintf ppf "%dh%02dm"
      (int_of_float seconds / 3600)
      (int_of_float seconds mod 3600 / 60)

let render s =
  let pct =
    if s.classes_total = 0 then 100.
    else 100. *. float_of_int s.classes_done /. float_of_int s.classes_total
  in
  let bar_width = 10 in
  let filled =
    if s.classes_total = 0 then bar_width
    else bar_width * s.classes_done / s.classes_total
  in
  let bar = String.make filled '#' ^ String.make (bar_width - filled) '.' in
  let buf = Buffer.create 96 in
  Buffer.add_string buf
    (Printf.sprintf "[%s] %5.1f%% %d/%d classes" bar pct s.classes_done
       s.classes_total);
  if s.shards_total > 1 then
    Buffer.add_string buf
      (Printf.sprintf " | shard %d/%d" s.shards_done s.shards_total);
  if s.rate > 0. then
    Buffer.add_string buf (Printf.sprintf " | %.0f exp/s" s.rate);
  (match s.eta with
  | Some eta ->
      Buffer.add_string buf
        (Format.asprintf " | ETA %a" pp_duration eta)
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf " | %d failures" (Outcome.tally_failures s.tally));
  if s.resumed_classes > 0 then
    Buffer.add_string buf (Printf.sprintf " | %d resumed" s.resumed_classes);
  if s.retries > 0 || s.kills > 0 then
    Buffer.add_string buf
      (Printf.sprintf " | %d retries/%d kills" s.retries s.kills);
  if s.quarantined_shards > 0 then
    Buffer.add_string buf
      (Printf.sprintf " | %d quarantined" s.quarantined_shards);
  Buffer.contents buf

let throttled ?(interval = 0.1) ?(now = Unix.gettimeofday) hook =
  let last = ref neg_infinity in
  fun s ->
    let t = now () in
    if finished s || t -. !last >= interval then begin
      last := t;
      hook s
    end
