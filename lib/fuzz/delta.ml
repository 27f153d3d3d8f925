type variant = Sum_dmr | Tmr | Dft of int

let variant_to_string = function
  | Sum_dmr -> "sumdmr"
  | Tmr -> "tmr"
  | Dft n -> Printf.sprintf "dft:%d" n

let variant_of_string s =
  match s with
  | "sumdmr" -> Ok Sum_dmr
  | "tmr" -> Ok Tmr
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "dft" -> (
          let rest = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt rest with
          | Some n when n > 0 -> Ok (Dft n)
          | _ -> Error (Printf.sprintf "bad dft cycle count %S" rest))
      | _ -> Error (Printf.sprintf "unknown variant %S" s))

let default_variants = [ Sum_dmr; Tmr; Dft 4; Dft 16 ]
let compile_baseline prog = Codegen.compile prog

let compile_variant v prog =
  match v with
  | Sum_dmr -> Codegen.compile (Harden.sum_dmr prog)
  | Tmr -> Codegen.compile (Harden.tmr prog)
  | Dft n -> Transform.dilute_nops ~cycles:n (Codegen.compile prog)

type tally = {
  space : int;
  failures : int;
  histogram : (Outcome.t * int) list;
}

let tally_of_scan scan =
  {
    space = Metrics.experiment_total scan;
    failures = Metrics.failure_count scan;
    histogram = Metrics.outcome_histogram scan;
  }

let is_dilution ~baseline h =
  h.failures > baseline.failures
  && h.failures * baseline.space < baseline.failures * h.space

type finding = {
  program : Mir.prog;
  seed : int64;
  variant : variant;
  baseline : tally;
  hardened : tally;
  sampled_failure_ratio : float option;
}

(* ------------------------------------------------------------------ *)
(* Serial predicate evaluation (shrink steps)                          *)
(* ------------------------------------------------------------------ *)

let evaluate ?limit ~variant prog =
  match Check.check prog with
  | Error _ -> None
  | Ok () -> (
      match
        let base = compile_baseline prog in
        let hard = compile_variant variant prog in
        let scan image =
          Faultspace.(scan (of_golden Bitflip_mem (Golden.run ?limit image)))
        in
        (scan base, scan hard)
      with
      | sb, sh -> Some (tally_of_scan sb, tally_of_scan sh)
      | exception Golden.Golden_failed _ -> None
      | exception Invalid_argument _ -> None)

(* ------------------------------------------------------------------ *)
(* Engine-backed evaluation                                            *)
(* ------------------------------------------------------------------ *)

let specs_for ?variants:(vs = default_variants) prog =
  Spec.memory ~benchmark:prog.Mir.p_name ~variant:"baseline" (fun () ->
      compile_baseline prog)
  :: List.map
       (fun v ->
         Spec.memory ~benchmark:prog.Mir.p_name ~variant:(variant_to_string v)
           (fun () -> compile_variant v prog))
       vs

let hunt_program ?backend ?jobs ?(variants = default_variants) ?samples ~seed
    prog =
  (* One analysis per cell: the engine conducts from these golden runs,
     and the draws below locate in their geometry. *)
  let analysed variant compile =
    let golden = Golden.run (compile prog) in
    ( Spec.of_golden ~variant golden,
      Faultspace.of_golden Faultspace.Bitflip_mem golden )
  in
  let specs, cells =
    List.split
      (analysed "baseline" compile_baseline
      :: List.map
           (fun v -> analysed (variant_to_string v) (compile_variant v))
           variants)
  in
  let scans =
    List.map Engine.scan_exn (Engine.run_matrix_results ?backend ?jobs specs)
  in
  match List.combine cells scans with
  | [] -> assert false
  | (base_cell, base_scan) :: variant_cells ->
      let baseline = tally_of_scan base_scan in
      let sampled_ratio =
        match samples with
        | None -> fun _ -> None
        | Some n ->
            (* Read each draw from the conducted scan — identical to what
               a conducting sampler would return. *)
            let extrapolate (cell, scan) =
              Metrics.extrapolated_failures
                (Sampler.read scan
                   (Sampler.uniform_raw (Prng.create ~seed) ~samples:n cell))
            in
            let fb = lazy (extrapolate (base_cell, base_scan)) in
            fun hardened ->
              if Lazy.force fb = 0.0 then None
              else Some (extrapolate hardened /. Lazy.force fb)
      in
      List.concat
        (List.map2
           (fun v ((_, scan) as cell) ->
             let hardened = tally_of_scan scan in
             if is_dilution ~baseline hardened then
               [
                 {
                   program = prog;
                   seed;
                   variant = v;
                   baseline;
                   hardened;
                   sampled_failure_ratio = sampled_ratio cell;
                 };
               ]
             else [])
           variants variant_cells)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let shrink ?(budget = 200) finding =
  (* Candidate edits routinely break termination (e.g. deleting a loop
     increment); cap their golden runs at a small multiple of the
     original finding's runtime so a non-terminating candidate is
     rejected in microseconds, not at the 50M-cycle default watchdog. *)
  let limit =
    match
      Golden.run (compile_variant finding.variant finding.program)
    with
    | g -> (8 * g.Golden.cycles) + 20_000
    | exception Golden.Golden_failed _ -> 200_000
  in
  let evals = ref 0 in
  let rec descend current =
    let rec try_candidates = function
      | [] -> current
      | cand :: rest ->
          if !evals >= budget then current
          else begin
            incr evals;
            match evaluate ~limit ~variant:finding.variant cand with
            | Some (b, h) when is_dilution ~baseline:b h ->
                descend { current with program = cand; baseline = b; hardened = h }
            | Some _ | None -> try_candidates rest
          end
    in
    if !evals >= budget then current
    else try_candidates (Gen.shrink current.program)
  in
  descend finding

(* ------------------------------------------------------------------ *)
(* Fresh-engine verification                                           *)
(* ------------------------------------------------------------------ *)

let pp_hist ppf hist =
  List.iter
    (fun (o, n) -> Format.fprintf ppf " %s=%d" (Outcome.to_string o) n)
    hist

let verify ?backend ?jobs finding =
  match Check.check finding.program with
  | Error errs ->
      Error
        (Format.asprintf "program rejected by Check:@ %a"
           (Format.pp_print_list Check.pp_error)
           errs)
  | Ok () -> (
      let specs = specs_for ~variants:[ finding.variant ] finding.program in
      match
        List.map Engine.scan_exn
          (Engine.run_matrix_results ?backend ?jobs specs)
      with
      | exception Golden.Golden_failed _ -> Error "golden run failed"
      | [ sb; sh ] ->
          let b = tally_of_scan sb and h = tally_of_scan sh in
          let mismatch side want got =
            Error
              (Format.asprintf
                 "%s tally mismatch: stored F %d/%d{%a} vs replayed F %d/%d{%a}"
                 side want.failures want.space pp_hist want.histogram
                 got.failures got.space pp_hist got.histogram)
          in
          if b <> finding.baseline then mismatch "baseline" finding.baseline b
          else if h <> finding.hardened then mismatch "hardened" finding.hardened h
          else if not (is_dilution ~baseline:b h) then
            Error "dilution predicate no longer holds"
          else Ok ()
      | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* The mining loop                                                     *)
(* ------------------------------------------------------------------ *)

type hunt = { tried : int; findings : finding list }

let run ?cfg ?backend ?jobs ?(variants = default_variants) ?samples
    ?shrink_budget ?(log = ignore) ~seed ~budget () =
  let master = Prng.create ~seed in
  let findings = ref [] in
  for i = 1 to budget do
    let pseed = Prng.next_int64 master in
    let prog =
      Gen.rename
        (Printf.sprintf "fz%Lx" (Int64.logand pseed 0xFFFFFFFFL))
        (Gen.program ?cfg (Prng.create ~seed:pseed))
    in
    let found =
      hunt_program ?backend ?jobs ~variants ?samples ~seed:pseed prog
    in
    log
      (Printf.sprintf "[%d/%d] %s: %d dilution cell%s" i budget prog.Mir.p_name
         (List.length found)
         (if List.length found = 1 then "" else "s"));
    List.iter
      (fun f ->
        let shrunk = shrink ?budget:shrink_budget f in
        match verify ?backend ?jobs shrunk with
        | Ok () ->
            log
              (Printf.sprintf "  %s %s: F %d/%d -> %d/%d (shrunk, verified)"
                 shrunk.program.Mir.p_name
                 (variant_to_string shrunk.variant)
                 shrunk.baseline.failures shrunk.baseline.space
                 shrunk.hardened.failures shrunk.hardened.space);
            findings := shrunk :: !findings
        | Error msg ->
            (* A shrunk finding that fails fresh-engine verification
               would be a bug in the shrinker or engine; keep the
               unshrunk original, which the engine itself produced. *)
            log
              (Printf.sprintf "  %s: shrunk verification failed (%s); keeping unshrunk"
                 prog.Mir.p_name msg);
            findings := f :: !findings)
      found
  done;
  { tried = budget; findings = List.rev !findings }
