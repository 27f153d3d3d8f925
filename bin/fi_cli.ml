(* fi-cli: command-line front-end to the fault-injection toolkit.

   Subcommands:
     run       execute a benchmark (or an .s file) and show its behaviour
     trace     golden run + def/use statistics
     campaign  full pruned FI campaign under any fault model, CSV out
     matrix    a whole benchmark matrix through one shared worker pool
     sample    sampling-based estimation with confidence intervals
     compare   objective comparison of a baseline/hardened pair
     asm       assemble / disassemble / encode a .s file
     poisson   Table-I style Poisson fault-count probabilities
     report    campaign-free paper artifacts
     journal   artifact-store maintenance (journal compact)
     list      available benchmarks and variants
     worker    remote worker daemon (worker serve) for --backend sockets
     serve     campaign-service daemon
     submit    submit a benchmark matrix to a campaign service
     status    one-line status of a campaign service
     fuzz      mine dilution-delusion counterexamples (fuzz replay
               re-verifies the corpus) *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Benchmark lookup                                                   *)
(* ------------------------------------------------------------------ *)

let builders =
  [
    ("hi", fun () -> Hi.program ());
    ("hi+dft", fun () -> Hi.dft ());
    ("hi+dft'", fun () -> Hi.dft' ());
    ("hi+pad", fun () -> Hi.dft_memory ());
  ]
  @ List.map
      (fun (e : Suite.entry) ->
        ( Printf.sprintf "%s/%s" e.Suite.benchmark
            (Suite.variant_name e.Suite.variant),
          e.Suite.build ))
      Suite.all

let program_names = List.map fst builders

let load_program spec =
  match List.assoc_opt spec builders with
  | Some build -> Ok (build ())
  | None ->
      if Sys.file_exists spec then begin
        let ic = open_in spec in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        match Assembler.assemble ~name:(Filename.basename spec) text with
        | Ok image -> Ok image
        | Error e ->
            Error (Format.asprintf "%s: %a" spec Assembler.pp_error e)
      end
      else
        Error
          (Printf.sprintf
             "unknown program %S (try `fi-cli list`, or pass a .s file)" spec)

let program_arg =
  let doc =
    "Benchmark name (e.g. bin_sem2/baseline, sync2/sum+dmr, hi) or path to \
     an assembly file."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let or_die = function
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "fi-cli: %s\n" msg;
      exit 2

(* --secret and --workers HOST:PORT[,...] mean the same thing in every
   subcommand that takes them: one declaration and one reader each. *)
let secret_arg =
  let doc =
    "Shared-secret file for handshake authentication: every handshake \
     between a conductor, a worker daemon ($(b,fi-cli worker serve)) and \
     a campaign service ($(b,fi-cli serve)) carries an HMAC tag derived \
     from $(docv)'s contents (whitespace-trimmed), and peers without the \
     same secret are refused.  Both ends must pass $(b,--secret)."
  in
  Arg.(value & opt (some string) None & info [ "secret" ] ~docv:"FILE" ~doc)

let load_secret = Option.map (fun file -> or_die (Hmac.load_secret file))

let fleet_arg =
  let doc =
    "Comma-separated $(b,HOST:PORT) addresses of remote worker daemons \
     (each started with $(b,fi-cli worker serve)) to conduct campaigns \
     on.  Implies $(b,--backend sockets); $(b,fi-cli serve) uses them \
     instead of $(b,--local-backend).  Jobs and shard records cross the \
     connections; the local journal stays the only durable state, so \
     $(b,--resume) heals a campaign whose remote workers vanished."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "workers" ] ~docv:"HOST:PORT[,HOST:PORT...]" ~doc)

(* The one parser of a --workers list, called where the fleet is used. *)
let fleet_hosts spec =
  match Addr.parse_list spec with
  | Ok addrs -> List.map Addr.to_string addrs
  | Error msg -> or_die (Error msg)

(* ------------------------------------------------------------------ *)
(* Campaign-engine options (campaign / matrix / compare / sample)     *)
(* ------------------------------------------------------------------ *)

(* One cmdliner term shared by every engine-backed subcommand, so
   -j/--journal/--resume/--shard-size/--weighted-shards mean the same
   thing everywhere. *)
type engine_opts = {
  backend : Pool.backend;
  workers : string option;
  jobs : int;
  journal : string option;
  resume : bool;
  shard_size : int option;
  weighted : bool;
  shard_timeout : float option;
  max_retries : int;
  no_quarantine : bool;
  no_cache : bool;
  checkpoint_stride : int option;
  secret : string option;
  fault_model : Faultspace.model;
}

let fault_model_conv =
  let parse s =
    match Faultspace.of_tag s with Ok m -> Ok m | Error e -> Error (`Msg e)
  in
  let print ppf m = Format.pp_print_string ppf (Faultspace.tag m) in
  Arg.conv (parse, print)

let fault_model_arg =
  let doc =
    Printf.sprintf
      "Fault model of the campaign: %s.  Every model shards, journals,        resumes, caches and distributes identically; the model tag is part        of the campaign fingerprint, so journals and cache entries never        cross models."
      (String.concat "; "
         (List.map
            (fun (t, d) -> Printf.sprintf "$(b,%s) (%s)" t d)
            Faultspace.known))
  in
  Arg.(
    value
    & opt fault_model_conv Faultspace.Bitflip_mem
    & info [ "fault-model" ] ~docv:"MODEL" ~doc)

let backend_arg =
  let doc =
    "Campaign execution backend: $(b,domains) (shared-memory OCaml \
     domains in this process), $(b,processes) (fork/exec'd, \
     crash-isolated worker processes — a killed worker only costs its \
     unfinished shards, which supervision or $(b,--resume) replays) or \
     $(b,sockets) (remote worker daemons — requires $(b,--workers)).  \
     Both worker backends speak one frame protocol.  Results are \
     bit-identical in every case."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("domains", Pool.Domains);
             ("processes", Pool.Processes);
             ("sockets", Pool.Sockets []);
           ])
        Pool.Domains
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

let jobs_arg =
  let doc =
    "Workers (domains or processes, per $(b,--backend)) for the \
     campaign engine; 0 means all cores \
     ($(b,Domain.recommended_domain_count)).  With $(b,--workers), \
     bounds $(i,per-remote-host) concurrency instead, and 0 lets each \
     daemon decide (its advertised capacity).  Results are \
     bit-identical for every value."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let engine_opts_term =
  let journal =
    let doc =
      "Write an append-only, fsync'd campaign journal to $(docv) (one \
       CRC-guarded record per completed shard), enabling $(b,--resume) \
       after a crash or kill.  Without this flag the engine journals to \
       $(b,_artifacts/fi-)$(i,FINGERPRINT)$(b,.journal), named by the \
       campaign fingerprint.  A $(docv) outside $(b,_artifacts/) is \
       yours: pass the same $(b,--journal) to resume it; $(b,journal \
       compact) never touches it."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let resume =
    let doc =
      "Recover already-completed shards from the journal instead of \
       re-conducting them.  The journal is the $(b,--journal) file when \
       given, otherwise the campaign's fingerprint-named journal under \
       $(b,_artifacts/) — found again even after a SIGKILL."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let shard_size =
    let doc =
      "Experiment classes per shard (default: about 1/128th of the \
       campaign).  Part of the campaign fingerprint: a journal's writer \
       and resumer must agree on it."
    in
    Arg.(value & opt (some int) None & info [ "shard-size" ] ~docv:"N" ~doc)
  in
  let weighted =
    let doc =
      "Size shards by estimated conducted cycles instead of class count \
       (balances wall-clock across workers when data lifetimes are \
       skewed).  Part of the campaign fingerprint."
    in
    Arg.(value & flag & info [ "weighted-shards" ] ~doc)
  in
  let shard_timeout =
    let doc =
      "Supervision deadline in seconds ($(b,--backend processes)): a \
       worker that completes no shard for $(docv) is declared hung (or \
       stalled, if it still heartbeats), SIGKILLed, and its shards \
       retried.  Default: derived from the observed shard rate (8× the \
       mean per-worker shard time)."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "shard-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let max_retries =
    let doc =
      "Retry budget per shard: how many times a shard whose worker died \
       (crash, hang, stall) is re-dispatched to a fresh worker, with \
       exponential backoff, before it is quarantined (or, with \
       $(b,--no-quarantine), fails the campaign).  0 disables automatic \
       retry — recovery is then a manual $(b,--resume)."
    in
    Arg.(value & opt int 2 & info [ "max-retries" ] ~docv:"N" ~doc)
  in
  let no_quarantine =
    let doc =
      "Fail the campaign ($(b,Worker_failed), nonzero exit) when a shard \
       exhausts its retry budget, instead of quarantining the shard and \
       completing the campaign without it."
    in
    Arg.(value & flag & info [ "no-quarantine" ] ~doc)
  in
  let no_cache =
    let doc =
      "Skip the content-addressed result cache \
       ($(b,_artifacts/<key>.result) entries): always conduct every \
       shard, and do not publish this run's journals for future \
       reuse.  Without this flag a cell whose (program image × fault \
       space × policy) key is already cached replays the finished \
       journal — bit-identical results, zero shard executions."
    in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let checkpoint_stride =
    let doc =
      "Checkpoint ladder stride in cycles for the snapshot-accelerated \
       injection hot path: the golden execution is checkpointed every \
       $(docv) cycles and each experiment starts from the nearest \
       checkpoint at or below its injection cycle.  It stops as soon as \
       it provably re-converges with the golden run, or reaches a \
       checkpoint in a machine state an earlier experiment reached \
       there (a memo of at most 5 MiB per process).  0 disables the \
       ladder and the memo (restart-from-reset reference semantics).  A pure \
       performance knob: results are bit-identical at every stride, so \
       it is not part of the campaign fingerprint and does not affect \
       $(b,--resume) or the result cache."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-stride" ] ~docv:"CYCLES" ~doc)
  in
  Term.(
    const (fun backend workers jobs journal resume shard_size weighted
               shard_timeout max_retries no_quarantine no_cache
               checkpoint_stride secret fault_model ->
        {
          backend;
          workers;
          jobs;
          journal;
          resume;
          shard_size;
          weighted;
          shard_timeout;
          max_retries;
          no_quarantine;
          no_cache;
          checkpoint_stride;
          secret;
          fault_model;
        })
    $ backend_arg $ fleet_arg $ jobs_arg $ journal $ resume $ shard_size
    $ weighted $ shard_timeout $ max_retries $ no_quarantine $ no_cache
    $ checkpoint_stride $ secret_arg $ fault_model_arg)

let policy_of opts =
  Spec.make_policy ?shard_size:opts.shard_size ~weighted:opts.weighted
    ?journal:opts.journal ~resume:opts.resume ~catalogue:Cache.default_dir
    ?shard_timeout:opts.shard_timeout ~max_retries:opts.max_retries
    ~quarantine:(not opts.no_quarantine)
    ?cache:(if opts.no_cache then None else Some Cache.default_dir)
    ?checkpoint_stride:opts.checkpoint_stride ()

(* --workers names hosts, --backend names a strategy; together they
   resolve to one backend value here, so every engine subcommand agrees
   on what the pair means: --workers implies sockets, sockets without
   --workers is an error (there is nothing to connect to). *)
let resolve_backend backend workers =
  match (backend, workers) with
  | (Pool.Domains | Pool.Processes), None -> backend
  | _, Some hosts -> Pool.Sockets (fleet_hosts hosts)
  | Pool.Sockets _, None ->
      or_die
        (Error
           "--backend sockets needs --workers HOST:PORT[,HOST:PORT...] (start \
            daemons with `fi-cli worker serve`)")

let backend_of opts = resolve_backend opts.backend opts.workers

(* The options the fuzzer honours: where its campaigns run.  The hunt
   fixes everything else itself (memory model, default policy), so the
   rest of the engine options are usage errors there, not silently
   ignored flags. *)
type fleet_opts = {
  fleet_backend : Pool.backend;
  fleet_jobs : int;
  fleet_secret : string option;
}

let fleet_opts_term =
  Term.(
    const (fun backend workers jobs secret ->
        {
          fleet_backend = resolve_backend backend workers;
          fleet_jobs = jobs;
          fleet_secret = load_secret secret;
        })
    $ backend_arg $ fleet_arg $ jobs_arg $ secret_arg)

(* A fleet that refuses or loses the fuzzer's campaigns ends the command
   as it ends a campaign: exit 2 with the engine's message. *)
let on_fleet f = try f () with Engine.Worker_failed msg -> or_die (Error msg)

(* Jobs resolution lives in Pool.resolve_jobs — the engine uses the very
   same function, so `-j 0` can never mean different things to different
   subcommands (or to the backends). *)
let resolve_jobs ?backend jobs =
  match Pool.resolve_jobs ?backend ~jobs () with
  | n -> n
  | exception Invalid_argument _ ->
      or_die (Error (Printf.sprintf "invalid job count %d" jobs))

let engine_progress ~quiet =
  if quiet then fun _ -> ()
  else
    Progress.throttled (fun snap ->
        Printf.eprintf "\r%s%!" (Progress.render snap);
        if Progress.finished snap then prerr_newline ())

(* Supervision events (worker killed, shard retried/quarantined) go to
   stderr as they happen; a final quarantine report follows the run, so
   a degraded campaign is impossible to mistake for a complete one. *)
let report_quarantine results =
  let qs =
    List.concat_map (fun (r : Engine.result) -> r.Engine.quarantined) results
  in
  if qs <> [] then begin
    Printf.eprintf
      "fi-cli: WARNING: %d shard%s quarantined — the classes below were \
       never conducted and hold No_effect placeholders:\n"
      (List.length qs)
      (if List.length qs > 1 then "s" else "");
    List.iter
      (fun (q : Engine.quarantined) ->
        Printf.eprintf
          "  %s: shard %d (%d classes) after %d attempt%s: %s\n"
          q.Engine.q_cell q.Engine.q_shard q.Engine.q_classes
          q.Engine.q_attempts
          (if q.Engine.q_attempts > 1 then "s" else "")
          q.Engine.q_cause)
      qs;
    Printf.eprintf
      "fi-cli: re-run with --resume to give quarantined shards another \
       chance.\n%!"
  end

(* An existing journal written under a different fault model is a user
   error, not a fresh campaign: refuse loudly up front instead of
   truncating the file (without --resume) or surfacing a bare
   fingerprint mismatch (with --resume). *)
let check_journal_models specs =
  List.iter
    (fun (s : Spec.t) ->
      match s.Spec.policy.Spec.durability.Spec.journal with
      | Some path when Sys.file_exists path -> (
          let want = Faultspace.tag s.Spec.model in
          match Runcell.journal_model_tag path with
          | Some have when have <> want ->
              or_die
                (Error
                   (Printf.sprintf
                      "journal %s was written under fault model %s, but this \
                       run requests --fault-model %s for %s; refusing to %s \
                       it — pass a different --journal or delete the file"
                      path have want (Spec.label s)
                      (if s.Spec.policy.Spec.durability.Spec.resume then
                         "resume"
                       else "overwrite")))
          | Some _ | None -> ())
      | Some _ | None -> ())
    specs

let engine_matrix ~opts ~quiet specs =
  check_journal_models specs;
  let backend = backend_of opts in
  match
    Engine.run_matrix_results ~backend
      ~jobs:(resolve_jobs ~backend opts.jobs)
      ~observe:(engine_progress ~quiet)
      ~on_event:(fun msg -> Printf.eprintf "\n[supervision] %s\n%!" msg)
      ?secret:(load_secret opts.secret) specs
  with
  | results ->
      report_quarantine results;
      (match List.filter (fun (r : Engine.result) -> r.Engine.cached) results with
      | [] -> ()
      | hits when not quiet ->
          Printf.eprintf "fi-cli: %d of %d cell%s served from the result cache\n%!"
            (List.length hits) (List.length results)
            (if List.length results > 1 then "s" else "")
      | _ -> ());
      List.map (fun (r : Engine.result) -> r.Engine.scan) results
  | exception Engine.Journal_mismatch msg -> or_die (Error msg)
  | exception Engine.Worker_failed msg -> or_die (Error msg)

let engine_spec ~opts ~quiet spec =
  match engine_matrix ~opts ~quiet [ spec ] with
  | [ scan ] -> scan
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* run                                                                *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let listing =
    Arg.(value & flag & info [ "listing" ] ~doc:"Print the disassembly first.")
  in
  let limit =
    Arg.(
      value & opt int 50_000_000
      & info [ "limit" ] ~docv:"CYCLES" ~doc:"Watchdog cycle limit.")
  in
  let action spec listing limit =
    let image = or_die (load_program spec) in
    if listing then Format.printf "%a@." Program.pp_listing image;
    let m = Machine.create image in
    let reason = Machine.run m ~limit in
    Format.printf "stop     : %a@." Machine.pp_stop_reason reason;
    Format.printf "cycles   : %d@." (Machine.cycle m);
    Format.printf "output   : %S@." (Machine.serial_output m);
    List.iter
      (fun (cycle, code) ->
        Format.printf "event    : cycle %d, %a@." cycle Event_codes.pp code)
      (Machine.detection_events m)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a program and report its behaviour.")
    Term.(const action $ program_arg $ listing $ limit)

(* ------------------------------------------------------------------ *)
(* trace                                                              *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let map_flag =
    Arg.(
      value & flag
      & info [ "map" ]
          ~doc:"Render the fault-space map (tiny programs only).")
  in
  let action spec map_flag =
    let image = or_die (load_program spec) in
    let golden = Golden.run image in
    Format.printf "%a@." Golden.pp_summary golden;
    let d = golden.Golden.defuse in
    Format.printf "accesses           : %d@." (Trace.length golden.Golden.trace);
    Format.printf "def/use classes    : %d@." (Array.length (Defuse.classes d));
    Format.printf "experiment classes : %d (x8 bits = %d experiments)@."
      (Array.length (Defuse.experiment_classes d))
      (Defuse.experiment_count d);
    Format.printf "a-priori benign    : %d bit-cycles@."
      (Defuse.known_benign_weight d);
    if map_flag then print_string (Faultmap.access_map_golden golden)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Golden run and def/use pruning statistics.")
    Term.(const action $ program_arg $ map_flag)

(* ------------------------------------------------------------------ *)
(* campaign                                                           *)
(* ------------------------------------------------------------------ *)

(* Suite builder specs are "bench/variant"; carrying the real hardening
   variant into the spec keeps register/burst/skip cells honestly
   labelled in reports (hardening does not rename the program, so the
   image name alone cannot distinguish baseline from SUM+DMR). *)
let variant_of_program_spec spec =
  if List.mem_assoc spec builders then
    match String.index_opt spec '/' with
    | Some i -> String.sub spec (i + 1) (String.length spec - i - 1)
    | None -> "baseline"
  else "baseline"

(* A campaign's spec and the fault-model cell it conducts, from one
   golden run of the image. *)
let analysed ~variant ~policy model image =
  let spec = Spec.of_golden ~variant ~policy ~model (Golden.run image) in
  (spec, Runcell.analyse spec)

(* The program and its fault space under the chosen model: what every
   count and extrapolation below is relative to. *)
let print_space (cell : Faultspace.cell) =
  let model = cell.Faultspace.model in
  let g = cell.Faultspace.golden in
  let name = g.Golden.program.Program.name in
  (match model with
  | Faultspace.Skip ->
      (* the skip space is the cycle axis, not the memory geometry *)
      Format.printf
        "%s: %d cycles, %d bytes RAM, fault space w = %d cycles, %d \
         experiments (no pruning)@."
        name g.Golden.cycles g.Golden.program.Program.ram_size
        (Faultspace.space cell) cell.Faultspace.slots
  | Faultspace.Bitflip_reg ->
      Format.printf
        "%s: %d cycles, register fault space w = %d bit-cycles (%d x %d), %d \
         pruned experiments@."
        name g.Golden.cycles (Faultspace.space cell) g.Golden.cycles
        cell.Faultspace.rows (Faultspace.experiments cell)
  | _ -> Format.printf "%a@." Golden.pp_summary g);
  if model <> Faultspace.Bitflip_mem then
    Format.printf "fault model: %s@." (Faultspace.describe model)

let campaign_cmd =
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Save results as CSV.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress.") in
  let breakdown =
    Arg.(
      value & flag
      & info [ "breakdown" ]
          ~doc:"Also attribute the failure mass to data regions.")
  in
  let action spec out quiet breakdown opts =
    let image = or_die (load_program spec) in
    let model = opts.fault_model in
    let campaign_spec, cell =
      analysed ~variant:(variant_of_program_spec spec) ~policy:(policy_of opts)
        model image
    in
    print_space cell;
    let scan = engine_spec ~opts ~quiet campaign_spec in
    let t =
      Table.create
        ~columns:
          [ ("metric", Table.Left); ("weighted/full", Table.Right);
            ("unweighted (pitfall 1)", Table.Right) ]
    in
    Table.row t
      [ "fault coverage";
        Printf.sprintf "%.3f%%" (100.0 *. Metrics.coverage scan);
        Printf.sprintf "%.3f%%"
          (100.0 *. Metrics.coverage ~policy:Accounting.pitfall1 scan) ];
    Table.row t
      [ "failure count";
        string_of_int (Metrics.failure_count scan);
        string_of_int (Metrics.failure_count ~policy:Accounting.pitfall1 scan) ];
    Table.print t;
    Format.printf "@.P(Failure) per run at %.3f FIT/Mbit: %.3e  (MWTF %.3e runs)@."
      (Fit_rate.to_float Fit_rate.mean_published)
      (Metrics.failure_probability scan)
      (Mwtf.runs_to_failure scan);
    Format.printf "outcome histogram (weighted, full space):@.";
    List.iter
      (fun (o, n) -> Format.printf "  %-20s %12d@." (Outcome.to_string o) n)
      (Metrics.outcome_histogram scan);
    (* The region breakdown attributes failure mass to RAM data regions,
       which only makes sense for models whose rows are real memory
       bytes. *)
    (match model with
    | (Faultspace.Bitflip_mem | Faultspace.Burst _) when breakdown ->
        print_string (Figures.breakdown scan image)
    | _ -> ());
    match out with
    | Some path ->
        Csv_io.save path scan;
        Format.printf "results written to %s@." path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "campaign" ~doc:"Run a full pruned fault-injection campaign.")
    Term.(
      const action $ program_arg $ out $ quiet $ breakdown $ engine_opts_term)

(* ------------------------------------------------------------------ *)
(* matrix                                                             *)
(* ------------------------------------------------------------------ *)

let matrix_cmd =
  let pairs =
    Arg.(
      value & flag
      & info [ "pairs" ]
          ~doc:
            "Only the paper's Figure 2 pairs (bin_sem2 and sync2, baseline \
             vs SUM+DMR) instead of the whole suite.")
  in
  let outdir =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output-dir" ] ~docv:"DIR"
          ~doc:"Save one CSV per cell into $(docv).")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress.") in
  let sanitize label =
    String.map (function '/' | '@' -> '-' | c -> c) label
  in
  let action pairs outdir quiet opts =
    let model = opts.fault_model in
    let policy = policy_of opts in
    let specs =
      (if pairs then Suite.paper_specs ~model ~policy ()
       else Suite.spec_matrix ~model ~policy ())
      |> List.map (fun s ->
             (* An explicit --journal is a stem: one journal per cell. *)
             match opts.journal with
             | None -> s
             | Some stem ->
                 Spec.with_policy
                   { policy with
                     Spec.durability =
                       { policy.Spec.durability with
                         Spec.journal =
                           Some (stem ^ "." ^ sanitize (Spec.label s));
                       };
                   }
                   s)
    in
    (if not quiet then
       match resolve_jobs ~backend:(backend_of opts) opts.jobs with
       | 0 ->
           Printf.eprintf
             "matrix: %d cells on remote workers (daemon-decided concurrency)\n\
              %!"
             (List.length specs)
       | n ->
           Printf.eprintf "matrix: %d cells on %d worker(s)\n%!"
             (List.length specs) n);
    let scans = engine_matrix ~opts ~quiet specs in
    let t =
      Table.create
        ~columns:
          [ ("cell", Table.Left); ("experiments", Table.Right);
            ("coverage", Table.Right); ("failures", Table.Right);
            ("P(Failure)", Table.Right) ]
    in
    List.iter2
      (fun spec scan ->
        Table.row t
          [ Spec.label spec;
            string_of_int (Array.length scan.Scan.experiments);
            Printf.sprintf "%.3f%%" (100.0 *. Metrics.coverage scan);
            string_of_int (Metrics.failure_count scan);
            Printf.sprintf "%.3e" (Metrics.failure_probability scan) ])
      specs scans;
    Table.print t;
    match outdir with
    | None -> ()
    | Some dir ->
        Cache.ensure_dir dir;
        List.iter2
          (fun spec scan ->
            let path =
              Filename.concat dir (sanitize (Spec.label spec) ^ ".csv")
            in
            Csv_io.save path scan;
            Format.printf "results written to %s@." path)
          specs scans
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Run a whole benchmark matrix (suite × variants, or the paper \
          pairs) through one shared worker pool, with per-cell journals \
          and aggregate progress.  With --resume, every cell picks up \
          where its journal left off (pass the same --journal stem, if \
          any).")
    Term.(
      const action $ pairs $ outdir $ quiet $ engine_opts_term)

(* ------------------------------------------------------------------ *)
(* sample                                                             *)
(* ------------------------------------------------------------------ *)

let sample_cmd =
  let samples =
    Arg.(
      value & opt int 10_000
      & info [ "n"; "samples" ] ~docv:"N" ~doc:"Number of samples.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let biased =
    Arg.(
      value & flag
      & info [ "biased" ]
          ~doc:"Sample def/use classes uniformly instead (Pitfall 2) — for \
                demonstration only.")
  in
  let action spec samples seed biased opts =
    let image = or_die (load_program spec) in
    let model = opts.fault_model in
    (match (biased, model) with
    | true, Faultspace.Bitflip_mem -> ()
    | true, m ->
        or_die
          (Error
             (Printf.sprintf
                "--biased needs the memory def/use class inventory and is \
                 only defined for --fault-model mem (got %s)"
                (Faultspace.tag m)))
    | false, _ -> ());
    let campaign_spec, cell =
      analysed ~variant:(variant_of_program_spec spec) ~policy:(policy_of opts)
        model image
    in
    print_space cell;
    let rng = Prng.create ~seed:(Int64.of_int seed) in
    let draw =
      if biased then Sampler.biased_per_class rng ~samples cell
      else Sampler.uniform_raw rng ~samples cell
    in
    (* In-process, only the draw's distinct slots are conducted, on the
       cell's provider at the policy's --checkpoint-stride.  With
       engine options, conduct (or resume) the full pruned campaign once
       and read every sample from it — the estimate is identical
       (deterministic machine, lossless pruning), but the heavy lifting
       shards, runs on all requested workers, and survives crashes. *)
    let oracle =
      opts.jobs <> 1 || opts.backend <> Pool.Domains || opts.workers <> None
      || opts.journal <> None || opts.resume || opts.shard_size <> None
      || opts.weighted || opts.shard_timeout <> None
    in
    let est =
      if oracle then Sampler.read (engine_spec ~opts ~quiet:false campaign_spec) draw
      else Sampler.conduct cell draw
    in
    let interval =
      Confidence.wilson ~fails:est.Sampler.failures ~trials:est.Sampler.samples
        ~confidence:0.95
    in
    Format.printf "sampler            : %s%s@."
      (if biased then "per-class (BIASED, pitfall 2)" else "uniform raw space")
      (if oracle then " via parallel campaign oracle" else "");
    Format.printf "samples            : %d (%d distinct experiments)@."
      est.Sampler.samples est.Sampler.distinct;
    Format.printf "failure fraction   : %.5f  95%% CI %a@."
      (Sampler.failure_fraction est)
      Confidence.pp_interval interval;
    Format.printf "extrapolated F     : %.0f  (corollary 2 of pitfall 3)@."
      (Metrics.extrapolated_failures est)
  in
  Cmd.v
    (Cmd.info "sample" ~doc:"Sampling-based campaign with extrapolation.")
    Term.(
      const action $ program_arg $ samples $ seed $ biased $ engine_opts_term)

(* ------------------------------------------------------------------ *)
(* compare                                                            *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  let hardened_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"HARDENED" ~doc:"Hardened variant.")
  in
  let action base_spec hard_spec opts =
    let base = or_die (load_program base_spec) in
    let hard = or_die (load_program hard_spec) in
    let spec_of name image =
      (* One journal per side, derived from the --journal stem (without
         it, each side's journal is named by its own fingerprint). *)
      let policy =
        let p = policy_of opts in
        { p with
          Spec.durability =
            { p.Spec.durability with
              Spec.journal =
                Option.map
                  (fun stem -> stem ^ "." ^ name)
                  p.Spec.durability.Spec.journal;
            };
        }
      in
      let spec, cell = analysed ~variant:name ~policy opts.fault_model image in
      Printf.eprintf "[%s] %d experiments...\n%!" name
        (Faultspace.experiments cell);
      spec
    in
    (* Both sides share one worker pool: the hardened cell's shards start
       as soon as baseline shards stop saturating it. *)
    let sb, sh =
      match
        engine_matrix ~opts ~quiet:false
          [ spec_of "baseline" base; spec_of "hardened" hard ]
      with
      | [ sb; sh ] -> (sb, sh)
      | _ -> assert false
    in
    let p3 = Pitfalls.analyze_pitfall3 ~baseline:sb ~hardened:sh in
    Format.printf "%a@." Pitfalls.pp_pitfall3 p3;
    Format.printf "pitfall 1 view of the baseline: %a@." Pitfalls.pp_pitfall1
      (Pitfalls.analyze_pitfall1 sb);
    Format.printf "pitfall 1 view of the hardened: %a@." Pitfalls.pp_pitfall1
      (Pitfalls.analyze_pitfall1 sh);
    Format.printf "MWTF ratio: %.3f@." (Mwtf.relative ~baseline:sb ~hardened:sh ())
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare a baseline and a hardened program with the objective \
             metric.  With --journal STEM, each side journals to \
             STEM.baseline / STEM.hardened and --resume recovers both.")
    Term.(const action $ program_arg $ hardened_arg $ engine_opts_term)

(* ------------------------------------------------------------------ *)
(* asm                                                                *)
(* ------------------------------------------------------------------ *)

let asm_cmd =
  let encode =
    Arg.(value & flag & info [ "encode" ] ~doc:"Also dump binary encoding.")
  in
  let action spec encode =
    let image = or_die (load_program spec) in
    Format.printf "%a@." Program.pp_listing image;
    if encode then
      match Encoding.encode_program image.Program.code with
      | Ok words ->
          Array.iteri (fun i w -> Format.printf "%4d: %08lx@." i w) words
      | Error e -> Format.printf "encoding error: %a@." Encoding.pp_error e
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Assemble and list a program.")
    Term.(const action $ program_arg $ encode)

(* ------------------------------------------------------------------ *)
(* poisson                                                            *)
(* ------------------------------------------------------------------ *)

let poisson_cmd =
  let cycles =
    Arg.(
      value
      & opt int 1_000_000_000
      & info [ "cycles" ] ~docv:"N" ~doc:"Benchmark runtime in cycles.")
  in
  let bytes_ =
    Arg.(
      value & opt int 131072
      & info [ "bytes" ] ~docv:"N" ~doc:"Benchmark memory usage in bytes.")
  in
  let rate =
    Arg.(
      value & opt float 0.057
      & info [ "fit" ] ~docv:"RATE" ~doc:"Soft-error rate in FIT/Mbit.")
  in
  let action cycles bytes_ rate =
    let rate = Fit_rate.of_fit_per_mbit rate in
    let lambda =
      Fit_rate.lambda rate ~cycles ~ns_per_cycle:1.0 ~bits:(8 * bytes_)
    in
    Format.printf "lambda = %.4e@." lambda;
    for k = 0 to 5 do
      Format.printf "P(%d faults) = %.4e@." k (Poisson.pmf ~lambda k)
    done
  in
  Cmd.v
    (Cmd.info "poisson"
       ~doc:"Poisson fault-count probabilities for a benchmark (Table I).")
    Term.(const action $ cycles $ bytes_ $ rate)

(* ------------------------------------------------------------------ *)
(* report                                                             *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let which =
    Arg.(
      value
      & pos_all (enum [ ("table1", `Table1); ("figure1", `Figure1);
                        ("figure3", `Figure3) ])
          [ `Table1; `Figure1; `Figure3 ]
      & info [] ~docv:"ARTIFACT"
          ~doc:"Artifacts to print: table1, figure1, figure3 (the cheap, \
                campaign-free ones; the full set lives in bench/main.exe).")
  in
  let action which =
    List.iter
      (fun artifact ->
        print_string
          (match artifact with
          | `Table1 -> Figures.table1 ()
          | `Figure1 -> Figures.figure1 ()
          | `Figure3 -> Figures.figure3 ()))
      which
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Print campaign-free paper artifacts.")
    Term.(const action $ which)

(* ------------------------------------------------------------------ *)
(* journal (maintenance of the artifact store)                        *)
(* ------------------------------------------------------------------ *)

let journal_cmd =
  let dir =
    Arg.(
      value
      & opt string Cache.default_dir
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Artifact-store directory: the campaigns' fingerprint-named \
             journals and the $(b,<key>.result) entry files.")
  in
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:"Report what compaction would delete without deleting it.")
  in
  let compact_cmd =
    let action dir dry_run =
      let c = Engine.compact ~dry_run ~dir () in
      Format.printf "%s%d journal%s examined: %d finished journal%s %s, %d kept@."
        (if dry_run then "[dry run] " else "")
        c.Engine.examined
        (if c.Engine.examined = 1 then "" else "s")
        c.Engine.deleted
        (if c.Engine.deleted = 1 then "" else "s")
        (if dry_run then "would be deleted" else "deleted")
        c.Engine.kept
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:
           "Delete the store's finished campaign journals \
            ($(b,fi-*.journal) in $(b,--dir)) that no $(b,<key>.result) \
            entry references.  A journal is finished when it replays \
            cleanly and every plan shard has a record; unfinished ones \
            — a killed run, or a quarantine-degraded one that \
            $(b,--resume) can still heal — are kept, as are \
            cache-referenced journals (they are the cached results) and \
            journals written to an explicit $(b,--journal) path outside \
            the store.")
      Term.(const action $ dir $ dry_run)
  in
  Cmd.group
    (Cmd.info "journal" ~doc:"Maintain the artifact store's journals.")
    [ compact_cmd ]

(* ------------------------------------------------------------------ *)
(* worker                                                             *)
(* ------------------------------------------------------------------ *)

let worker_cmd =
  let serve_cmd =
    let listen =
      let doc =
        "Address to listen on.  Port $(b,0) lets the kernel pick one; the \
         actual address is announced on stdout as $(b,fi-net listening \
         HOST:PORT ...)."
      in
      Arg.(
        value
        & opt string "127.0.0.1:0"
        & info [ "listen" ] ~docv:"HOST:PORT" ~doc)
    in
    let workers =
      let doc =
        "Concurrent conducting workers (one forked child per accepted \
         connection); this is also the capacity advertised in the \
         handshake, which a conductor running $(b,-j 0) adopts.  0 means \
         all cores."
      in
      Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N" ~doc)
    in
    let action listen workers secret =
      let listen =
        match Addr.parse listen with Ok a -> a | Error e -> or_die (Error e)
      in
      let workers =
        if workers = 0 then Pool.default_jobs ()
        else if workers < 0 then
          or_die (Error (Printf.sprintf "invalid worker count %d" workers))
        else workers
      in
      Remote.serve ~listen ~workers ?secret:(load_secret secret)
        ~announce:(fun line ->
          print_endline line;
          flush stdout)
        ()
    in
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Run a remote campaign-worker daemon: accept framed-TCP \
            connections from a conductor ($(b,--workers HOST:PORT)), \
            authenticate each via the protocol-version + binary-digest \
            handshake (both ends must run the byte-identical fi-cli \
            binary), and conduct the shipped shards exactly as a local \
            $(b,--backend processes) worker would, over the same frame \
            protocol.  Runs until killed.")
      Term.(const action $ listen $ workers $ secret_arg)
  in
  Cmd.group
    (Cmd.info "worker"
       ~doc:
         "Remote campaign workers: $(b,worker serve) runs a worker \
          daemon for $(b,--backend sockets).  Local \
          $(b,--backend processes) workers need no entry point: the \
          engine re-executes this binary with $(b,FI_ENGINE_WORKER) set.")
    [ serve_cmd ]

(* ------------------------------------------------------------------ *)
(* serve / submit / status — the campaign service                     *)
(* ------------------------------------------------------------------ *)

let svc_addr_arg =
  let doc = "Campaign-service address (from its announce line)." in
  Arg.(
    required
    & opt (some string) None
    & info [ "to" ] ~docv:"HOST:PORT" ~doc)

let serve_cmd =
  let listen =
    let doc =
      "Address to listen on.  Port $(b,0) lets the kernel pick; the \
       actual address is announced on stdout as $(b,fi-svc listening \
       HOST:PORT ...)."
    in
    Arg.(
      value
      & opt string Service.default_config.Service.listen
      & info [ "listen" ] ~docv:"HOST:PORT" ~doc)
  in
  let local_backend =
    Arg.(
      value
      & opt
          (enum [ ("domains", Pool.Domains); ("processes", Pool.Processes) ])
          Service.default_config.Service.local_backend
      & info [ "local-backend" ] ~docv:"BACKEND"
          ~doc:
            "Backend for fleet-less operation: $(b,domains) or \
             $(b,processes).")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker parallelism per campaign; 0 = all cores.")
  in
  let window =
    Arg.(
      value
      & opt int Service.default_config.Service.window
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Admission window: how many jobs one client host may have \
             queued before further submissions are refused.")
  in
  let dir =
    Arg.(
      value
      & opt string Cache.default_dir
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Artifact store: the campaigns' fingerprint-named journals \
             and the content-addressed result entries, one \
             $(b,<key>.result) file per cell, live here.")
  in
  let action listen workers local_backend jobs window dir secret_file =
    let workers = Option.fold ~none:[] ~some:fleet_hosts workers in
    if jobs < 0 then
      or_die (Error (Printf.sprintf "invalid job count %d" jobs));
    if window < 1 then
      or_die (Error (Printf.sprintf "invalid admission window %d" window));
    let config =
      {
        Service.listen;
        workers;
        local_backend;
        jobs;
        window;
        artifacts = dir;
        secret_file;
      }
    in
    match Service.serve ~config ~announce:(fun line ->
        print_endline line;
        flush stdout) ()
    with
    | () -> ()
    | exception Failure msg -> or_die (Error msg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign service: a resident daemon that accepts \
          campaign submissions ($(b,fi-cli submit)) over framed TCP, \
          queues them fairly per client host, conducts them on its \
          backend, streams progress back, and answers submissions whose \
          every cell is already in the content-addressed result store \
          instantly — without occupying the worker fleet.")
    Term.(
      const action $ listen $ fleet_arg $ local_backend $ jobs $ window $ dir
      $ secret_arg)

let submit_cmd =
  let pairs =
    Arg.(
      value & flag
      & info [ "pairs" ]
          ~doc:"Submit only the paper's Figure 2 pairs instead of the \
                whole suite.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress.") in
  let action addr pairs quiet secret_file model =
    let addr = or_die (Addr.parse addr) in
    let secret = load_secret secret_file in
    let specs =
      if pairs then Suite.paper_specs ~model ()
      else Suite.spec_matrix ~model ()
    in
    let cells = List.map (fun s -> Worker.cell_of_spec s) specs in
    if not quiet then
      Printf.eprintf "submit: %d cell%s to %s\n%!" (List.length cells)
        (if List.length cells > 1 then "s" else "")
        (Addr.to_string addr);
    let on_progress line =
      if not quiet then Printf.eprintf "\r%s%!" line
    in
    let results = or_die (Service.submit ?secret ~on_progress ~addr cells) in
    if not quiet then prerr_newline ();
    let t =
      Table.create
        ~columns:
          [ ("cell", Table.Left); ("experiments", Table.Right);
            ("coverage", Table.Right); ("failures", Table.Right);
            ("P(Failure)", Table.Right); ("origin", Table.Left) ]
    in
    List.iter
      (fun (label, (r : Engine.result)) ->
        let scan = r.Engine.scan in
        Table.row t
          [ label;
            string_of_int (Array.length scan.Scan.experiments);
            Printf.sprintf "%.3f%%" (100.0 *. Metrics.coverage scan);
            string_of_int (Metrics.failure_count scan);
            Printf.sprintf "%.3e" (Metrics.failure_probability scan);
            (if r.Engine.cached then "cache" else "run") ])
      results;
    Table.print t;
    report_quarantine (List.map snd results)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a benchmark matrix to a running campaign service \
          ($(b,fi-cli serve)) and await its results.  Cells the service \
          has already conducted — for you or anyone else — come back \
          instantly from its result store, marked $(b,cache) in the \
          origin column.")
    Term.(
      const action $ svc_addr_arg $ pairs $ quiet $ secret_arg
      $ fault_model_arg)

let status_cmd =
  let action addr secret_file =
    let addr = or_die (Addr.parse addr) in
    let secret = load_secret secret_file in
    print_endline (or_die (Service.status ?secret ~addr ()))
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"One-line status of a running campaign service: connected \
             clients, queue depth, fleet busyness, published result-store \
             cells.")
    Term.(const action $ svc_addr_arg $ secret_arg)

(* ------------------------------------------------------------------ *)
(* list                                                               *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let action () =
    List.iter print_endline program_names
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List built-in benchmarks and variants.")
    Term.(const action $ const ())

(* ------------------------------------------------------------------ *)
(* fuzz                                                               *)
(* ------------------------------------------------------------------ *)

let fuzz_corpus_arg =
  let doc =
    "Corpus directory: mined counterexamples are stored here as \
     content-addressed text entries, and $(b,fuzz replay) re-verifies \
     every entry found here."
  in
  Arg.(
    value
    & opt string Corpus.default_dir
    & info [ "o"; "corpus" ] ~docv:"DIR" ~doc)

(* A finding's pair: absolute failures, and the coverage [1 − F/w] that
   misleadingly improves. *)
let pp_dilution ~(baseline : Delta.tally) ppf (hardened : Delta.tally) =
  let coverage (t : Delta.tally) =
    100.0
    *. (1.0 -. (float_of_int t.Delta.failures /. float_of_int t.Delta.space))
  in
  Format.fprintf ppf
    "F %d/%d -> %d/%d: failures x%.3f while coverage %.4f%% -> %.4f%%"
    baseline.Delta.failures baseline.Delta.space hardened.Delta.failures
    hardened.Delta.space
    (float_of_int hardened.Delta.failures
    /. float_of_int baseline.Delta.failures)
    (coverage baseline) (coverage hardened)

let fuzz_cmd =
  let hunt_term =
    let budget =
      let doc = "Random programs to generate and evaluate." in
      Arg.(value & opt int 8 & info [ "budget" ] ~docv:"N" ~doc)
    in
    let seed =
      let doc =
        "Master PRNG seed.  The whole hunt — programs, campaigns, \
         shrinking — is a pure function of this value, so a corpus mined \
         on one host reproduces anywhere."
      in
      Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)
    in
    let variants =
      let doc =
        "Comma-separated hardening variants to pit against the baseline: \
         $(b,sumdmr), $(b,tmr), $(b,dft:N) (N NOP cycles prepended).  \
         Default: sumdmr,tmr,dft:4,dft:16."
      in
      Arg.(value & opt (some string) None & info [ "variants" ] ~docv:"LIST" ~doc)
    in
    let samples =
      let doc =
        "Also draw an N-sample uniform raw-space estimate per cell \
         (reported as the sampled extrapolation ratio; the predicate \
         always uses the exact full scans)."
      in
      Arg.(value & opt (some int) None & info [ "samples" ] ~docv:"N" ~doc)
    in
    let min_found =
      let doc =
        "Exit nonzero unless at least $(docv) dilution-delusion findings \
         were mined (CI gate)."
      in
      Arg.(value & opt int 0 & info [ "min-found" ] ~docv:"N" ~doc)
    in
    let shrink_budget =
      let doc = "Campaign-pair evaluations the shrinker may spend per finding." in
      Arg.(value & opt int 200 & info [ "shrink-budget" ] ~docv:"N" ~doc)
    in
    let action budget seed variants samples min_found shrink_budget dir fleet =
      let variants =
        match variants with
        | None -> Delta.default_variants
        | Some s ->
            List.map
              (fun v -> or_die (Delta.variant_of_string (String.trim v)))
              (String.split_on_char ',' s)
      in
      let hunt =
        on_fleet (fun () ->
            Delta.run ~backend:fleet.fleet_backend ~jobs:fleet.fleet_jobs
              ?secret:fleet.fleet_secret ~variants ?samples ~shrink_budget
              ~log:(fun line -> Printf.eprintf "%s\n%!" line)
              ~seed:(Int64.of_int seed) ~budget ())
      in
      List.iter
        (fun f ->
          let path = Corpus.store ~dir (Corpus.of_finding f) in
          Format.printf "%s %s %a%s@." path
            (Delta.variant_to_string f.Delta.variant)
            (pp_dilution ~baseline:f.Delta.baseline)
            f.Delta.hardened
            (match f.Delta.sampled_failure_ratio with
            | None -> ""
            | Some r -> Printf.sprintf " (sampled ratio %.3f)" r))
        hunt.Delta.findings;
      let found = List.length hunt.Delta.findings in
      Printf.printf
        "%d programs evaluated, %d dilution-delusion findings stored under %s\n"
        hunt.Delta.tried found dir;
      if found < min_found then begin
        Printf.eprintf "fi-cli: fuzz found %d < --min-found %d\n" found
          min_found;
        exit 1
      end
    in
    Term.(
      const action $ budget $ seed $ variants $ samples $ min_found
      $ shrink_budget $ fuzz_corpus_arg $ fleet_opts_term)
  in
  let replay_cmd =
    let action dir fleet =
      let paths = Corpus.list ~dir in
      if paths = [] then
        or_die (Error (Printf.sprintf "no corpus entries under %s" dir));
      let failed = ref 0 in
      List.iter
        (fun path ->
          match Corpus.load_file path with
          | Error msg ->
              incr failed;
              Printf.printf "FAIL %s: %s\n%!" path msg
          | Ok e -> (
              match
                on_fleet (fun () ->
                    Corpus.verify ~backend:fleet.fleet_backend
                      ~jobs:fleet.fleet_jobs ?secret:fleet.fleet_secret e)
              with
              | Ok () ->
                  Printf.printf "ok   %s (%s, F %d/%d -> %d/%d)\n%!" path
                    (Delta.variant_to_string e.Corpus.variant)
                    e.Corpus.baseline.Delta.failures
                    e.Corpus.baseline.Delta.space
                    e.Corpus.hardened.Delta.failures
                    e.Corpus.hardened.Delta.space
              | Error msg ->
                  incr failed;
                  Printf.printf "FAIL %s: %s\n%!" path msg))
        paths;
      Printf.printf "%d/%d corpus entries verified\n" (List.length paths - !failed)
        (List.length paths);
      if !failed > 0 then exit 1
    in
    Cmd.v
      (Cmd.info "replay"
         ~doc:"Re-verify every corpus entry bit-identically: recompile each \
               program from its stored text, re-conduct both campaigns on \
               the chosen backend, and require the stored tallies exactly \
               plus the coverage-vs-failures inversion.  Nonzero exit on \
               any mismatch.")
      Term.(const action $ fuzz_corpus_arg $ fleet_opts_term)
  in
  Cmd.group
    (Cmd.info "fuzz"
       ~doc:"Mine dilution-delusion counterexamples: generate random MIR \
             programs, campaign them against SUM+DMR/TMR/DFT hardened \
             variants on any backend, flag cells where fault coverage \
             improves while extrapolated absolute failures rise, shrink \
             each finding, and store it in a replayable regression corpus.")
    ~default:hunt_term [ replay_cmd ]

let () =
  (* Must run before anything else: a process exec'd with
     FI_ENGINE_WORKER=1 is a campaign worker, not a CLI, one exec'd
     with FI_ENGINE_NET_SERVE is a remote-worker daemon, and one with
     FI_ENGINE_SVC_SERVE is a campaign-service daemon. *)
  Worker.guard ();
  Remote.guard ();
  Service.guard ();
  let doc =
    "fault-injection campaigns, metrics and pitfall analyses on the \
     deterministic RISC simulator"
  in
  let info = Cmd.info "fi-cli" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
    [ run_cmd; trace_cmd; campaign_cmd; matrix_cmd; sample_cmd; compare_cmd;
      asm_cmd; poisson_cmd; report_cmd; journal_cmd; list_cmd; worker_cmd;
      serve_cmd; submit_cmd; status_cmd; fuzz_cmd ]))
