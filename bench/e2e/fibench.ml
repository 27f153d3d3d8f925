(* fibench — the repository benchmark.

   Drives the campaign engine through its public API on four named
   workloads.  [run] measures what a user of the engine sees (set-up
   time, campaign wall time, throughput, per-call latency, peak RSS);
   [run --trace 1] (alias [trace]) re-drives the same cells serially,
   layer by layer, keeps one span per layer call in memory and reports
   per-layer self times and counts.  Every cell's outcomes are checked:
   against expected.digests, and on the seeded fuzz workload also
   against a restart-from-reset replay.  README.md beside this file
   documents workloads, metrics and bounds. *)

let jobs = 2
let default_seed = 2024L
let setup_passes = 10

(* ------------------------------------------------------------------ *)
(* Utilities                                                          *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sum = List.fold_left ( +. ) 0.

(* Nearest-rank percentile. *)
let percentile p xs =
  match Array.of_list (List.sort compare xs) with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let median xs =
  match Array.of_list (List.sort compare xs) with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Everything the benchmark writes — journals, caches, segments, smoke
   files — lives in a per-process directory under ./.fibench, removed
   at exit.  It never touches _artifacts/, so no stale cache or journal
   can turn a cold run warm. *)
let scratch_root = Filename.concat (Sys.getcwd ()) ".fibench"

let scratch =
  lazy
    (let dir =
       (try Sys.mkdir scratch_root 0o755 with Sys_error _ -> ());
       Filename.temp_dir ~temp_dir:scratch_root "run" ""
     in
     Filename.set_temp_dir_name dir;
     at_exit (fun () ->
         rm_rf dir;
         try Sys.rmdir scratch_root with Sys_error _ -> ());
     dir)

let fresh_dir prefix =
  Filename.temp_dir ~temp_dir:(Lazy.force scratch) prefix ""

let peak_rss_mb () =
  let from_proc =
    match read_file "/proc/self/status" with
    | text ->
        List.find_map
          (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float kb /. 1024.))
          (String.split_on_char '\n' text)
    | exception Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let commit () =
  let read p = try Some (String.trim (read_file p)) with Sys_error _ -> None in
  let packed r =
    Option.bind (read ".git/packed-refs") (fun p ->
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ h; n ] when n = r -> Some h
            | _ -> None)
          (String.split_on_char '\n' p))
  in
  match read ".git/HEAD" with
  | Some h when String.starts_with ~prefix:"ref: " h -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read (Filename.concat ".git" r) with
      | Some c -> c
      | None -> Option.value (packed r) ~default:"unknown")
  | Some c -> c
  | None -> "unknown"

let nproc () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* JSON: writing, and a small reader for the parent and the smoke test *)
(* ------------------------------------------------------------------ *)

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json s =
  let n = String.length s and i = ref 0 in
  let fail () = failwith (Printf.sprintf "bad JSON at offset %d" !i) in
  let peek () = if !i < n then s.[!i] else '\000' in
  let ws () = while !i < n && String.contains " \t\r\n" s.[!i] do incr i done in
  let eat c = ws (); if peek () <> c then fail (); incr i in
  let lit word v =
    let l = String.length word in
    if !i + l <= n && String.sub s !i l = word then (i := !i + l; v) else fail ()
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr i
      | '\\' ->
          (match s.[!i + 1] with
          | 'u' ->
              Buffer.add_char b
                (Char.chr (int_of_string ("0x" ^ String.sub s (!i + 2) 4) land 0xff));
              i := !i + 4
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | c -> Buffer.add_char b c);
          i := !i + 2;
          go ()
      | '\000' -> fail ()
      | c -> Buffer.add_char b c; incr i; go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' -> incr i; Obj (seq '}' (fun () -> let k = str () in eat ':'; (k, value ())))
    | '[' -> incr i; Arr (seq ']' value)
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ ->
        let j = !i in
        while !i < n && String.contains "+-0123456789.eE" s.[!i] do incr i done;
        (match float_of_string_opt (String.sub s j (!i - j)) with
        | Some x -> Num x
        | None -> fail ())
  and seq : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    ws ();
    if peek () = close then (incr i; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        ws ();
        match peek () with
        | ',' -> incr i; more acc
        | c when c = close -> incr i; List.rev acc
        | _ -> fail ()
      in
      more []
  in
  let v = value () in
  ws ();
  if !i <> n then fail ();
  v

let member k = function Obj fs -> List.assoc_opt k fs | _ -> None

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

type size = Full | Small

(* One [Engine.run_matrix_results] submission. *)
type call = { specs : Spec.t list; backend : Pool.backend }

type workload = {
  name : string;
  calls : size -> seed:int64 -> policy:Spec.policy -> call list;
  fixed : bool;
      (** Fixed programs: every cell must have an expected digest.  The
          one unfixed workload is seeded and replay-checked instead. *)
  durable : bool;
      (** Journals into a fresh store and resubmits as cache hits. *)
}

let suite_spec ?model ~policy benchmark variant =
  match Suite.find ~benchmark ~variant with
  | Some e -> Suite.spec_of ?model ~policy e
  | None -> invalid_arg ("fibench: no suite entry " ^ benchmark)

let hi_spec ?(model = Faultspace.Bitflip_mem) ~policy () =
  Spec.build ~model ~policy ~benchmark:"hi" Hi.program

let one backend specs = [ { specs; backend } ]

let paper_fig2 size ~seed:_ ~policy =
  one Pool.Domains
    (match size with
    | Full -> Suite.paper_specs ~policy ()
    | Small ->
        [
          hi_spec ~policy ();
          suite_spec ~policy "mbox1" Suite.Baseline;
          suite_spec ~policy "mbox1" Suite.Sum_dmr;
        ])

let fault_models size ~seed:_ ~policy =
  let kernels =
    match size with
    | Full ->
        List.map
          (fun b model -> suite_spec ~model ~policy b Suite.Baseline)
          [ "bin_sem2"; "crc"; "sort" ]
    | Small -> [ (fun model -> hi_spec ~model ~policy ()) ]
  in
  one Pool.Domains
    (List.concat_map
       (fun kernel ->
         List.map kernel Faultspace.[ Bitflip_mem; Bitflip_reg; burst 3; burst ~row:2 3; Skip ])
       kernels)

(* Fuzz draws are held to small programs: a baseline golden run of at
   most [fuzz_max_cycles] cycles.  Campaign cost grows with the square of
   the runtime, so without the cap a handful of large draws would decide
   the workload's time and its spread across seeds. *)
let fuzz_max_cycles = 600

(* Each program is compiled as baseline, SUM+DMR and DFT16 and run as
   one 3-cell matrix, the way [Delta.hunt_program] runs it. *)
let fuzz_small_cells size ~seed ~policy =
  let master = Prng.create ~seed in
  let rec draw () =
    let pseed = Prng.next_int64 master in
    let prog =
      Gen.rename
        (Printf.sprintf "fz%Lx" (Int64.logand pseed 0xFFFFFFFFL))
        (Gen.program (Prng.create ~seed:pseed))
    in
    match Golden.run ~limit:fuzz_max_cycles (Delta.compile_baseline prog) with
    | _ -> prog
    | exception Golden.Golden_failed _ -> draw ()
  in
  let calls = ref [] in
  for _ = 1 to (match size with Full -> 128 | Small -> 4) do
    let prog = draw () in
    let cell (variant, compile) =
      Spec.memory ~policy ~benchmark:prog.Mir.p_name ~variant (fun () -> compile prog)
    in
    let v d = (Delta.variant_to_string d, Delta.compile_variant d) in
    calls :=
      {
        specs = List.map cell [ ("baseline", Delta.compile_baseline); v Delta.Sum_dmr; v (Delta.Dft 16) ];
        backend = Pool.Domains;
      }
      :: !calls
  done;
  List.rev !calls

let durable_cache size ~seed:_ ~policy =
  one Pool.Processes
    (match size with
    | Full ->
        [
          suite_spec ~policy "bin_sem2" Suite.Baseline;
          suite_spec ~policy "bin_sem2" Suite.Sum_dmr;
        ]
    | Small -> [ hi_spec ~policy () ])

let workloads =
  [
    { name = "paper-fig2"; calls = paper_fig2; fixed = true; durable = false };
    { name = "fault-models"; calls = fault_models; fixed = true; durable = false };
    { name = "fuzz-small-cells"; calls = fuzz_small_cells; fixed = false; durable = false };
    { name = "durable-cache"; calls = durable_cache; fixed = true; durable = true };
  ]

(* Cache-hit resubmissions after each cold run of the durable workload. *)
let hits = function Full -> 70 | Small -> 10

(* The durable workload's policy: journal catalogue and result cache in
   a fresh store; every other workload runs the default policy. *)
let policy_for w =
  if w.durable then
    let store = fresh_dir "store" in
    Spec.make_policy ~catalogue:store ~cache:store ()
  else Spec.default_policy

let cell_specs calls = List.concat_map (fun c -> c.specs) calls

(* ------------------------------------------------------------------ *)
(* Metrics and reports                                                *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("campaign_s", "s");
    ("exp_per_s", "exp/s");
    ("call_ms_p50", "ms");
    ("peak_rss_mb", "MiB");
  ]

let outcome_keys = List.map (fun o -> "outcome." ^ Outcome.to_string o) Outcome.all

let per_layer =
  [
    ("kernel.build_s", "s");
    ("golden.run_s", "s");
    ("golden.cycles", "count");
    ("defuse.analyze_s", "s");
    ("defuse.classes", "count");
    ("faultspace.analyse_s", "s");
    ("faultspace.experiments", "count");
    ("shard.plan_s", "s");
    ("shard.count", "count");
    ("ladder.build_s", "s");
    ("ladder.rungs", "count");
    ("conduct.s", "s");
    ("conduct.experiments", "count");
    ("conduct.us_per_exp", "us");
    ("conduct.shard_ms_p50", "ms");
    ("conduct.shard_ms_p95", "ms");
    ("conduct.shard_ms_max", "ms");
  ]
  @ List.map (fun k -> (k, "count")) outcome_keys
  @ [
      ("engine.j1_s", "s");
      ("engine.overhead_s", "s");
      ("journal.append_s", "s");
      ("journal.records", "count");
      ("journal.bytes", "B");
      ("journal.replay_s", "s");
      ("cache.key_s", "s");
      ("cache.publish_s", "s");
      ("cache.lookup_s", "s");
      ("metrics.s", "s");
      ("trace.redrive_s", "s");
    ]

type report = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** The contract metrics, in order. *)
  extra : (string * float * string) list;  (** Printed, not in the JSON. *)
}

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer) with Some u -> u | None -> "?"

let print_report wname r =
  let line (k, v, u) =
    let v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.6g" v in
    Printf.printf "%s %s %s %s\n" wname k v u
  in
  List.iter (fun (k, v) -> line (k, v, unit_of k)) r.metrics;
  List.iter line r.extra;
  line ("attempted", float r.attempted, "cells");
  line ("failed", float r.failed, "cells");
  line ("failed_frac", float r.failed /. float (max 1 r.attempted), "ratio")

let report_json r =
  json_obj
    [
      ("correct", string_of_bool (r.failed = 0));
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ( "metrics",
        json_obj
          (List.map
             (fun (k, v) ->
               (k, json_obj [ ("value", json_num v); ("unit", json_str (unit_of k)) ]))
             r.metrics) );
    ]

(* ------------------------------------------------------------------ *)
(* Outcome checks                                                     *)
(* ------------------------------------------------------------------ *)

let outcome_string (scan : Scan.t) =
  String.init (Array.length scan.Scan.experiments) (fun i ->
      Outcome.to_char scan.Scan.experiments.(i).Scan.outcome)

let scan_digest scan = Digest.to_hex (Digest.string (outcome_string scan))

(* expected.digests: one "<md5> <cell label>" line per cell, the MD5
   taken over the cell's ordered per-experiment outcome characters. *)
let load_digests path =
  let t = Hashtbl.create 512 in
  String.split_on_char '\n' (read_file path)
  |> List.iter (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | [ d; label ] when String.length d = 32 -> Hashtbl.replace t label d
         | _ -> ());
  t

type checker = {
  wname : string;
  expected : (string, string) Hashtbl.t;
  fixed : bool;
  mutable attempted : int;
  mutable failed : int;
}

let checker w expected =
  { wname = w.name; expected; fixed = w.fixed; attempted = 0; failed = 0 }

let fail ck label reason =
  ck.failed <- ck.failed + 1;
  Printf.eprintf "FAIL %s %s: %s\n%!" ck.wname label reason

(* A cell fails if its call raised, a shard was quarantined, its cache
   provenance is not the expected one, or its outcomes disagree with
   expected.digests (or have no entry there, for fixed programs). *)
let check_cell ck ?cached (spec : Spec.t) result =
  let label = Spec.label spec in
  ck.attempted <- ck.attempted + 1;
  match result with
  | Error msg -> fail ck label ("raised " ^ msg)
  | Ok (r : Engine.result) -> (
      if r.Engine.quarantined <> [] then fail ck label "quarantined shard"
      else if Option.fold ~none:false ~some:(( <> ) r.Engine.cached) cached then
        fail ck label (if r.Engine.cached then "unexpected cache hit" else "cache miss")
      else
        match Hashtbl.find_opt ck.expected label with
        | Some d when d = scan_digest r.Engine.scan -> ()
        | Some _ -> fail ck label "outcomes differ from expected.digests"
        | None when ck.fixed -> fail ck label "no entry in expected.digests"
        | None -> ())

(* Re-conduct a cell on a restart-from-reset replay session in t_end
   order and compare with the engine's outcomes. *)
let replay_matches (spec : Spec.t) (scan : Scan.t) =
  let cell = Runcell.analyse spec in
  let session = Injector.session (Injector.replay cell.Runcell.golden) in
  let plan = Runcell.plan_of_policy spec.Spec.policy cell.Runcell.classes in
  Array.for_all
    (fun ci ->
      let c = cell.Runcell.classes.(ci) in
      List.for_all
        (fun bit ->
          cell.Runcell.conduct session c ~bit_in_byte:bit
          = scan.Scan.experiments.((8 * ci) + bit).Scan.outcome)
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])
    plan.Shard.order

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                     *)
(* ------------------------------------------------------------------ *)

(* One submission, with [Metrics] on every returned scan (part of what
   a user waits for). *)
let submit ?(jobs = jobs) c =
  let specs = c.specs in
  match Engine.run_matrix_results ~backend:c.backend ~jobs specs with
  | rs ->
      List.map2
        (fun spec (r : Engine.result) ->
          let s = r.Engine.scan in
          ignore (Metrics.failure_count s, Metrics.experiment_total s, Metrics.outcome_histogram s);
          (spec, Ok r))
        specs rs
  | exception e -> List.map (fun spec -> (spec, Error (Printexc.to_string e))) specs

(* A set-up pass: make the workload's cells (drawing fuzz programs),
   analyse each (compile, golden run, fault-space analysis) and build
   its checkpoint ladder. *)
let setup_pass w size ~seed =
  List.iter
    (fun spec ->
      let cell = Runcell.analyse spec in
      ignore (cell.Runcell.provider ()))
    (cell_specs (w.calls size ~seed ~policy:Spec.default_policy))

(* Per-outcome experiment counts, indexed by [Outcome.index]. *)
let add_outcomes counts outs =
  String.iter
    (fun c ->
      Option.iter (fun o -> counts.(Outcome.index o) <- counts.(Outcome.index o) + 1) (Outcome.of_char c))
    outs

let outcome_counts counts = List.mapi (fun i k -> (k, counts.(i))) outcome_keys

(* Peak RSS is the kernel's high-water mark over the first repetition,
   while the process is fresh: the runtime keeps its heap between
   repetitions.  The mark is reset first, where /proc allows it. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let measure w size ~seed ~seconds ~expected =
  let ck = checker w expected in
  let cold = ref [] and calls_ms = ref [] and reps = ref 0 and peak = ref nan in
  let experiments = ref 0 and outcomes = Array.make Outcome.count 0 and replays = ref [] in
  let submit_timed c =
    let rs, dt = timed (fun () -> submit c) in
    calls_ms := (dt *. 1000.) :: !calls_ms;
    (rs, dt)
  in
  (* Counts come from the first repetition, as does the replay sample:
     every 8th cell of the seeded workload. *)
  let note index spec = function
    | Ok (r : Engine.result) ->
        let outs = outcome_string r.Engine.scan in
        experiments := !experiments + String.length outs;
        add_outcomes outcomes outs;
        if (not w.fixed) && index mod 8 = 0 then replays := (spec, r.Engine.scan) :: !replays
    | Error _ -> ()
  in
  (* Cells are checked as each call returns and only counts are kept, so
     peak RSS is the engine's, not the benchmark's. *)
  let rep () =
    let policy = policy_for w in
    let calls = w.calls size ~seed ~policy in
    let first = !reps = 0 and index = ref 0 in
    if first then reset_peak_rss ();
    let times =
      List.map
        (fun c ->
          let rs, dt = submit_timed c in
          List.iter
            (fun (spec, r) ->
              check_cell ck ?cached:(if w.durable then Some false else None) spec r;
              if first then note !index spec r;
              incr index)
            rs;
          dt)
        calls
    in
    cold := Array.of_list times :: !cold;
    if w.durable then
      for _ = 1 to hits size do
        List.iter
          (fun c -> List.iter (fun (spec, r) -> check_cell ck ~cached:true spec r) (fst (submit_timed c)))
          calls
      done;
    if first then peak := peak_rss_mb ();
    Option.iter rm_rf policy.Spec.acceleration.Spec.cache
  in
  (* Start another repetition only if it is predicted to end within the
     window; there is always at least one. *)
  let t0 = now () in
  while !reps = 0 || (let el = now () -. t0 in el +. (el /. float !reps) <= seconds) do
    rep ();
    incr reps
  done;
  List.iter
    (fun (spec, scan) ->
      ck.attempted <- ck.attempted + 1;
      if not (replay_matches spec scan) then
        fail ck (Spec.label spec) "engine outcomes differ from replay")
    !replays;
  (* Set-up passes come last, so the first repetition runs in a fresh
     process. *)
  let setup =
    List.init setup_passes (fun _ -> snd (timed (fun () -> setup_pass w size ~seed)))
  in
  (* Each cold call's time is its median over the repetitions. *)
  let campaign_s =
    let reps = Array.of_list !cold in
    sum
      (List.init (Array.length reps.(0)) (fun i ->
           median (Array.to_list (Array.map (fun r -> r.(i)) reps))))
  in
  {
    attempted = ck.attempted;
    failed = ck.failed;
    metrics =
      [
        ("setup_s", median setup);
        ("campaign_s", campaign_s);
        ("exp_per_s", float !experiments /. campaign_s);
        ("call_ms_p50", median !calls_ms);
        ("peak_rss_mb", !peak);
      ];
    extra =
      ("call_ms_p95", percentile 0.95 !calls_ms, "ms")
      :: List.map
           (fun (k, v) -> (k, float v, "count"))
           ([ ("reps", !reps); ("calls", List.length !calls_ms); ("conduct.experiments", !experiments) ]
           @ outcome_counts outcomes);
  }

(* ------------------------------------------------------------------ *)
(* Traced layer-by-layer re-drive                                     *)
(* ------------------------------------------------------------------ *)

type span = {
  trace : string;  (** The cell label (or the fuzz draw it belongs to). *)
  id : int;
  parent : int option;
  layer : string;
  start : float;
  stop : float;
  counts : (string * int) list;
}

type tracer = { mutable spans : span list; mutable next : int; origin : float }

let span tr ~trace ?parent ?(counts = fun _ -> []) name f =
  let id = tr.next in
  tr.next <- id + 1;
  let start = now () in
  let r = f id in
  let stop = now () in
  tr.spans <-
    { trace; id; parent; layer = name; start = start -. tr.origin; stop = stop -. tr.origin; counts = counts r }
    :: tr.spans;
  r

let span_json s =
  json_obj
    [
      ("trace", json_str s.trace);
      ("span", string_of_int s.id);
      ("parent", Option.fold ~none:"null" ~some:string_of_int s.parent);
      ("name", json_str s.layer);
      ("start", json_num s.start);
      ("end", json_num s.stop);
      ("counts", json_obj (List.map (fun (k, v) -> (k, string_of_int v)) s.counts));
    ]

(* Re-drive one cell through the layers the engine composes, one span
   per public call, and return its scan. *)
let redrive tr ~dir ~index (spec : Spec.t) =
  let trace = Spec.label spec in
  span tr ~trace "cell" (fun root ->
      let leaf ?counts name f = span tr ~trace ~parent:root ?counts name (fun _ -> f ()) in
      let limit = spec.Spec.limit and policy = spec.Spec.policy in
      let program =
        leaf "kernel.build" (fun () ->
            match spec.Spec.source with
            | Spec.Build build -> build ()
            | Spec.Analysed_memory _ | Spec.Analysed_registers _ ->
                invalid_arg "fibench: workload cells are built from source")
      in
      let cycles (g : Golden.t) = [ ("golden.cycles", g.Golden.cycles) ] in
      let source, golden =
        match spec.Spec.model with
        | Faultspace.Bitflip_reg ->
            let r =
              leaf "regspace.analyze"
                ~counts:(fun r -> cycles r.Regspace.golden)
                (fun () -> Regspace.analyze ?limit program)
            in
            (Spec.Analysed_registers r, r.Regspace.golden)
        | Faultspace.Bitflip_mem | Faultspace.Burst _ | Faultspace.Skip ->
            let g = leaf "golden.run" ~counts:cycles (fun () -> Golden.run ?limit program) in
            (Spec.Analysed_memory g, g)
      in
      ignore
        (leaf "defuse.analyze"
           ~counts:(fun d -> [ ("defuse.classes", Array.length (Defuse.experiment_classes d)) ])
           (fun () -> Defuse.analyze golden.Golden.trace));
      let cell =
        leaf "faultspace.analyse"
          ~counts:(fun c -> [ ("faultspace.experiments", 8 * Array.length c.Runcell.classes) ])
          (fun () -> Runcell.analyse { spec with Spec.source })
      in
      let classes = cell.Runcell.classes in
      let plan =
        leaf "shard.plan"
          ~counts:(fun p -> [ ("shard.count", Array.length p.Shard.shards) ])
          (fun () -> Runcell.plan_of_policy policy classes)
      in
      let stride =
        Option.value policy.Spec.acceleration.Spec.checkpoint_stride
          ~default:Injector.default_stride
      in
      leaf "ladder.build"
        ~counts:(fun () ->
          [ ("ladder.rungs", if stride <= 0 then 0 else (golden.Golden.cycles - 1) / stride) ])
        (fun () -> ignore (cell.Runcell.provider ()));
      let records =
        Array.map
          (fun shard ->
            ( shard,
              leaf "conduct"
                ~counts:(fun b ->
                  let counts = Array.make Outcome.count 0 in
                  add_outcomes counts (Bytes.to_string b);
                  ("conduct.experiments", Bytes.length b) :: outcome_counts counts)
                (fun () -> Runcell.conduct_shard cell ~classes ~plan shard) ))
          plan.Shard.shards
      in
      let outcomes = Bytes.make (8 * Array.length classes) 'n' in
      Array.iter
        (fun ((s : Shard.t), buf) ->
          for k = 0 to Shard.classes_in s - 1 do
            Bytes.blit buf (8 * k) outcomes (8 * plan.Shard.order.(s.Shard.lo + k)) 8
          done)
        records;
      let fp = Runcell.fingerprint_cell cell ~plan in
      let path = Filename.concat dir (Printf.sprintf "cell%d.journal" index) in
      leaf "journal.append"
        ~counts:(fun () ->
          [ ("journal.records", Array.length records); ("journal.bytes", (Unix.stat path).Unix.st_size) ])
        (fun () ->
          let w = Journal.create path ~header:(Runcell.header_payload cell ~plan ~fp) in
          Array.iter (fun (s, b) -> Journal.append w (Runcell.record_payload s b)) records;
          Journal.close w);
      let replayed =
        leaf "journal.replay" (fun () ->
            match Journal.replay path with
            | Some (_, recs, Journal.Clean) -> List.filter_map (Runcell.parse_record plan) recs
            | Some _ | None -> [])
      in
      let journal_ok =
        List.length replayed = Array.length records
        && List.for_all
             (fun ((s : Shard.t), outs) -> outs = Bytes.to_string (snd records.(s.Shard.id)))
             replayed
      in
      let key =
        leaf "cache.key" (fun () ->
            Cache.cell_key
              ~image:(Digest.to_hex (Digest.string (Marshal.to_string program [])))
              ~space:(Faultspace.tag spec.Spec.model) ~limit
              ~shard_size:policy.Spec.sharding.Spec.shard_size
              ~weighted:policy.Spec.sharding.Spec.weighted)
      in
      leaf "cache.publish" (fun () -> Cache.publish ~dir ~key ~fingerprint:fp ~path);
      let hit = leaf "cache.lookup" (fun () -> Cache.lookup ~dir key) in
      let cache_ok =
        match hit with
        | Some e -> e.Cache.path = path && e.Cache.fingerprint = fp
        | None -> false
      in
      let scan =
        {
          Scan.name = golden.Golden.program.Program.name;
          variant = spec.Spec.variant;
          cycles = golden.Golden.cycles;
          ram_bytes = cell.Runcell.ram_bytes;
          experiments =
            Array.init (Bytes.length outcomes) (fun i ->
                let c = classes.(i / 8) in
                {
                  Scan.byte = c.Defuse.byte;
                  t_start = c.Defuse.t_start;
                  t_end = c.Defuse.t_end;
                  bit_in_byte = i mod 8;
                  outcome = Option.get (Outcome.of_char (Bytes.get outcomes i));
                });
          benign_weight = cell.Runcell.benign_weight;
        }
      in
      leaf "metrics" (fun () ->
          ignore (Metrics.failure_count scan, Metrics.experiment_total scan, Metrics.outcome_histogram scan));
      (scan, journal_ok && cache_ok))

(* Layers the engine itself performs for one cold call; what [engine.j1_s]
   spends beyond their self time is scheduling and merging overhead. *)
let engine_layers w =
  [ "kernel.build"; "golden.run"; "regspace.analyze"; "faultspace.analyse"; "shard.plan";
    "ladder.build"; "conduct" ]
  @ if w.durable then [ "journal.append"; "cache.key"; "cache.publish"; "cache.lookup" ] else []

let trace_workload w size ~seed ~expected ~out =
  let ck = checker w expected in
  let tr = { spans = []; next = 0; origin = now () } in
  let dir = fresh_dir "trace" in
  let make () = w.calls size ~seed ~policy:Spec.default_policy in
  (* Drawing the fuzz programs is the fuzz layer's work. *)
  let calls = if w.fixed then make () else span tr ~trace:w.name "fuzz.gen" (fun _ -> make ()) in
  let redriven, redrive_s =
    timed (fun () ->
        List.mapi (fun index spec -> (spec, redrive tr ~dir ~index spec)) (cell_specs calls))
  in
  (* The same cells through the engine, one worker. *)
  let j1_calls = w.calls size ~seed ~policy:(policy_for w) in
  let j1, j1_s = timed (fun () -> List.concat_map (submit ~jobs:1) j1_calls) in
  List.iter2
    (fun (spec, ((scan : Scan.t), layers_ok)) (_, r) ->
      check_cell ck ?cached:(if w.durable then Some false else None) spec r;
      ck.attempted <- ck.attempted + 1;
      let label = Spec.label spec in
      match r with
      | _ when not layers_ok -> fail ck label "journal or cache layer round trip"
      | Ok (r : Engine.result) when outcome_string r.Engine.scan <> outcome_string scan ->
          fail ck label "re-driven outcomes differ from the engine's"
      | Ok _ -> (
          match Hashtbl.find_opt expected label with
          | Some d when d <> scan_digest scan -> fail ck label "re-driven outcomes differ from expected.digests"
          | Some _ | None -> ())
      | Error _ -> fail ck label "no engine result to compare")
    redriven j1;
  let spans = List.rev tr.spans in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Option.iter
        (fun p ->
          Hashtbl.replace child_time p
            ((s.stop -. s.start) +. Option.value (Hashtbl.find_opt child_time p) ~default:0.))
        s.parent)
    spans;
  let self s = s.stop -. s.start -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0. in
  let names = List.sort_uniq compare (List.map (fun s -> s.layer) spans) in
  let self_of name = sum (List.filter_map (fun s -> if s.layer = name then Some (self s) else None) spans) in
  let count_of key =
    float
      (List.fold_left
         (fun a s -> a + Option.value (List.assoc_opt key s.counts) ~default:0)
         0 spans)
  in
  let shard_ms =
    List.filter_map
      (fun s -> if s.layer = "conduct" then Some ((s.stop -. s.start) *. 1000.) else None)
      spans
  in
  (* A time metric is its span's name plus "_s" or ".s". *)
  let value (k, u) =
    match k with
    | "conduct.us_per_exp" -> self_of "conduct" /. count_of "conduct.experiments" *. 1e6
    | "conduct.shard_ms_p50" -> median shard_ms
    | "conduct.shard_ms_p95" -> percentile 0.95 shard_ms
    | "conduct.shard_ms_max" -> List.fold_left max 0. shard_ms
    | "engine.j1_s" -> j1_s
    | "engine.overhead_s" -> j1_s -. sum (List.map self_of (engine_layers w))
    | "trace.redrive_s" -> redrive_s
    | _ when u = "s" -> self_of (String.sub k 0 (String.length k - 2))
    | _ -> count_of k
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun s -> output_string oc (span_json s ^ "\n")) spans))
    out;
  List.iter
    (fun n ->
      let of_n = List.filter (fun s -> s.layer = n) spans in
      Printf.printf "# layer %-18s spans %6d  total %10.6f s  self %10.6f s\n" n
        (List.length of_n)
        (sum (List.map (fun s -> s.stop -. s.start) of_n))
        (self_of n))
    names;
  {
    attempted = ck.attempted;
    failed = ck.failed;
    metrics = List.map (fun m -> (fst m, value m)) per_layer;
    extra =
      List.filter_map
        (fun (n, k) -> if List.mem n names then Some (k, self_of n, "s") else None)
        [ ("fuzz.gen", "fuzz.gen_s"); ("regspace.analyze", "regspace.analyze_s") ];
  }

(* ------------------------------------------------------------------ *)
(* Digests                                                            *)
(* ------------------------------------------------------------------ *)

let print_digests ws size ~seed =
  let seen = Hashtbl.create 512 and bad = ref false in
  List.iter
    (fun w ->
      let policy = policy_for w in
      List.iter
        (fun (spec, r) ->
          match r with
          | Ok (r : Engine.result) when r.Engine.quarantined = [] ->
              Hashtbl.replace seen (Spec.label spec) (scan_digest r.Engine.scan)
          | Ok _ | Error _ ->
              bad := true;
              Printf.eprintf "FAIL %s %s: no complete result\n%!" w.name (Spec.label spec))
        (List.concat_map submit (w.calls size ~seed ~policy));
      Option.iter rm_rf policy.Spec.acceleration.Spec.cache)
    ws;
  Hashtbl.fold (fun label d acc -> (label, d) :: acc) seen []
  |> List.sort compare
  |> List.iter (fun (label, d) -> Printf.printf "%s %s\n" d label);
  if !bad then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

type opts = {
  mutable names : string list;
  mutable seed : int64;
  mutable seconds : float;
  mutable trace : bool;
  mutable json : string option;
  mutable out : string option;
  mutable digests : string;
  mutable size : size;
}

let usage =
  "usage: fibench run [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--json FILE]\n\
  \       fibench trace --workload W [--seed N] [--out FILE.jsonl]\n\
  \       fibench digests [--workload W]... [--seed N]\n\
  \       fibench smoke\n\
   common: [--digests FILE] [--small]\n\
   workloads: paper-fig2 fault-models fuzz-small-cells durable-cache"

let die msg =
  prerr_endline ("fibench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse args =
  let o =
    {
      names = [];
      seed = default_seed;
      seconds = 0.;
      trace = false;
      json = None;
      out = None;
      digests = Filename.concat "bench" (Filename.concat "e2e" "expected.digests");
      size = Full;
    }
  in
  let num f s = match f s with Some v -> v | None -> die ("bad number " ^ s) in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: r -> o.names <- o.names @ [ w ]; go r
    | "--seed" :: s :: r -> o.seed <- num Int64.of_string_opt s; go r
    | "--seconds" :: s :: r -> o.seconds <- num float_of_string_opt s; go r
    | "--trace" :: t :: r -> o.trace <- num int_of_string_opt t <> 0; go r
    | "--json" :: f :: r -> o.json <- Some f; go r
    | "--out" :: f :: r -> o.out <- Some f; go r
    | "--digests" :: f :: r -> o.digests <- f; go r
    | "--small" :: r -> o.size <- Small; go r
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  go args;
  o

let selected o =
  match o.names with
  | [] -> workloads
  | names ->
      List.map
        (fun n ->
          match List.find_opt (fun w -> w.name = n) workloads with
          | Some w -> w
          | None -> die ("unknown workload " ^ n))
        names

let header o =
  [
    ("nproc", string_of_int (nproc ()));
    ("commit", json_str (commit ()));
    ("ocaml", json_str Sys.ocaml_version);
    ("seed", Int64.to_string o.seed);
    ("jobs", string_of_int jobs);
    ("seconds", json_num o.seconds);
    ("trace", string_of_bool o.trace);
  ]

let write_json o results =
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (json_obj (header o @ [ ("workloads", json_obj results) ]));
          output_char oc '\n'))
    o.json

let run_one o w =
  if nproc () < 2 then
    Printf.eprintf "fibench: WARNING: nproc = %d < 2; workloads use jobs = %d\n%!" (nproc ()) jobs;
  print_endline ("# fibench " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (header o)));
  let expected = load_digests o.digests in
  let r =
    if o.trace then trace_workload w o.size ~seed:o.seed ~expected ~out:o.out
    else measure w o.size ~seed:o.seed ~seconds:o.seconds ~expected
  in
  print_report w.name r;
  let j = report_json r in
  write_json o [ (w.name, j) ];
  print_endline j;
  r.failed

(* Several workloads: each in its own re-exec'd process, so peak RSS
   and heap state are per workload.  A child's output is passed through;
   its last line, the JSON report, is folded into one summary line. *)
let run_each o ws =
  let args w =
    [ "run"; "--workload"; w.name; "--seed"; Int64.to_string o.seed;
      "--seconds"; Printf.sprintf "%g" o.seconds; "--trace"; (if o.trace then "1" else "0");
      "--digests"; o.digests ]
    @ (if o.size = Small then [ "--small" ] else [])
    @ Option.fold ~none:[] ~some:(fun f -> [ "--out"; Printf.sprintf "%s.%s" f w.name ]) o.out
  in
  let results =
    List.map
      (fun w ->
        let ic =
          Unix.open_process_args_in Sys.executable_name
            (Array.of_list (Sys.executable_name :: args w))
        in
        let rec pass_through prev =
          match In_channel.input_line ic with
          | Some l ->
              Option.iter print_endline prev;
              pass_through (Some l)
          | None -> Option.value prev ~default:""
        in
        let last = pass_through None in
        ignore (Unix.close_process_in ic);
        match parse_json last with
        | j -> (w.name, last, j)
        | exception Failure _ -> (w.name, json_obj [ ("correct", "false") ], Obj []))
      ws
  in
  let int_of k j = match member k j with Some (Num x) -> int_of_float x | _ -> 0 in
  let attempted = List.fold_left (fun a (_, _, j) -> a + max 1 (int_of "attempted" j)) 0 results in
  let failed =
    List.fold_left
      (fun a (_, _, j) -> a + if member "correct" j = Some (Bool true) then int_of "failed" j else max 1 (int_of "failed" j))
      0 results
  in
  let metrics =
    List.concat_map
      (fun (n, _, j) ->
        match member "metrics" j with
        | Some (Obj ms) ->
            List.filter_map
              (fun (k, m) ->
                match member "value" m with Some (Num v) -> Some (n ^ "." ^ k, json_num v) | _ -> None)
              ms
        | _ -> [])
      results
  in
  write_json o (List.map (fun (n, raw, _) -> (n, raw)) results);
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (failed = 0));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_obj (List.map (fun (k, v) -> (k, json_obj [ ("value", v) ])) metrics));
       ]);
  failed

let run o =
  let failed = match selected o with [ w ] -> run_one o w | ws -> run_each o ws in
  exit (if failed > 0 then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Smoke self-test (dune runtest)                                     *)
(* ------------------------------------------------------------------ *)

let smoke o =
  let dir = fresh_dir "smoke" in
  (* Run this executable; [quiet] keeps an expected failure's report off
     the test log. *)
  let self ?(quiet = false) args =
    let file name = Unix.openfile (Filename.concat dir name) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let out = Filename.concat dir "stdout" in
    let fd = file "stdout" and err = if quiet then file "stderr" else Unix.stderr in
    let pid =
      Unix.create_process Sys.executable_name
        (Array.of_list (Sys.executable_name :: args))
        Unix.stdin fd err
    in
    Unix.close fd;
    if quiet then Unix.close err;
    let status = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1 in
    (status, String.split_on_char '\n' (read_file out))
  in
  let problems = ref [] in
  let expect cond what = if not cond then problems := what :: !problems in
  let printed lines w k =
    List.exists (fun l -> String.starts_with ~prefix:(w ^ " " ^ k ^ " ") l) lines
  in
  (* 1. all four workloads, tiny: every metric printed, --json parses *)
  let json = Filename.concat dir "run.json" in
  let code, lines = self [ "run"; "--small"; "--digests"; o.digests; "--json"; json ] in
  expect (code = 0) (Printf.sprintf "run exited %d" code);
  List.iter
    (fun w ->
      List.iter
        (fun (k, _) -> expect (printed lines w.name k) (w.name ^ " did not print " ^ k))
        (end_to_end @ [ ("failed_frac", "") ]))
    workloads;
  (match parse_json (read_file json) with
  | j ->
      List.iter
        (fun w ->
          expect
            (Option.bind (member "workloads" j) (member w.name) |> Option.map (member "metrics") <> None)
            ("--json lacks " ^ w.name))
        workloads
  | exception (Failure _ | Sys_error _) -> expect false "--json output does not parse");
  (* 2. one traced workload: every per-layer metric printed, spans parse *)
  let spans = Filename.concat dir "spans.jsonl" in
  let w = "durable-cache" in
  let code, lines =
    self [ "trace"; "--small"; "--workload"; w; "--digests"; o.digests; "--out"; spans ]
  in
  expect (code = 0) (Printf.sprintf "trace exited %d" code);
  List.iter (fun (k, _) -> expect (printed lines w k) ("trace did not print " ^ k)) per_layer;
  (match List.filter (( <> ) "") (String.split_on_char '\n' (read_file spans)) with
  | [] -> expect false "trace wrote no spans"
  | ls ->
      List.iter
        (fun l ->
          match parse_json l with
          | j ->
              expect
                (List.for_all
                   (fun k -> member k j <> None)
                   [ "trace"; "span"; "parent"; "name"; "start"; "end"; "counts" ])
                "span lacks a field"
          | exception Failure _ -> expect false "span line does not parse")
        ls
  | exception Sys_error _ -> expect false "trace wrote no span file");
  (* 3. a corrupted digest makes the cell fail *)
  let corrupt = Filename.concat dir "corrupt.digests" in
  Out_channel.with_open_text corrupt (fun oc ->
      String.split_on_char '\n' (read_file o.digests)
      |> List.iter (fun l ->
             let l =
               if String.ends_with ~suffix:" hi/baseline" l then
                 (if l.[0] = '0' then "1" else "0") ^ String.sub l 1 (String.length l - 1)
               else l
             in
             output_string oc (l ^ "\n")));
  let code, lines =
    self ~quiet:true [ "run"; "--small"; "--workload"; "fault-models"; "--digests"; corrupt ]
  in
  expect (code = 1) (Printf.sprintf "corrupted digests: exit %d, want 1" code);
  expect
    (List.exists
       (fun l ->
         match String.split_on_char ' ' l with
         | [ "fault-models"; "failed_frac"; v; _ ] -> float_of_string v > 0.
         | _ -> false)
       lines)
    "corrupted digests: failed_frac not > 0";
  match !problems with
  | [] -> print_endline "fibench smoke: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("fibench smoke: " ^ p)) (List.rev ps);
      exit 1

let () =
  Worker.guard ();
  Remote.guard ();
  Service.guard ();
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run (parse args)
  | _ :: "trace" :: args ->
      let o = parse args in
      if List.length o.names <> 1 then die "trace takes exactly one --workload";
      o.trace <- true;
      run o
  | _ :: "digests" :: args ->
      let o = parse args in
      print_digests (selected o) o.size ~seed:o.seed
  | _ :: "smoke" :: args -> smoke (parse args)
  | _ -> die "missing subcommand"
