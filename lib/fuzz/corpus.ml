let version_line = "fi-corpus v1"

type entry = {
  seed : int64;
  variant : Delta.variant;
  program : Mir.prog;
  baseline : Delta.tally;
  hardened : Delta.tally;
}

let of_finding (f : Delta.finding) =
  {
    seed = f.Delta.seed;
    variant = f.Delta.variant;
    program = f.Delta.program;
    baseline = f.Delta.baseline;
    hardened = f.Delta.hardened;
  }

(* ------------------------------------------------------------------ *)
(* Text format                                                         *)
(* ------------------------------------------------------------------ *)

let hist_to_string hist =
  if hist = [] then "-"
  else
    String.concat ","
      (List.map
         (fun (o, n) -> Printf.sprintf "%s=%d" (Outcome.to_string o) n)
         hist)

let hist_of_string s =
  if s = "-" then Ok []
  else
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match String.index_opt p '=' with
          | None -> Error (Printf.sprintf "bad histogram item %S" p)
          | Some i -> (
              let name = String.sub p 0 i in
              let count = String.sub p (i + 1) (String.length p - i - 1) in
              match (Outcome.of_string name, int_of_string_opt count) with
              | Some o, Some n -> go ((o, n) :: acc) rest
              | None, _ -> Error (Printf.sprintf "unknown outcome %S" name)
              | _, None -> Error (Printf.sprintf "bad count %S" count)))
    in
    go [] parts

let tally_line label (t : Delta.tally) =
  Printf.sprintf "%s %d %d %s" label t.Delta.space t.Delta.failures
    (hist_to_string t.Delta.histogram)

let tally_of_line label line =
  match String.split_on_char ' ' line with
  | [ l; space; failures; hist ] when l = label -> (
      match (int_of_string_opt space, int_of_string_opt failures) with
      | Some space, Some failures ->
          Result.map
            (fun histogram -> { Delta.space; failures; histogram })
            (hist_of_string hist)
      | _ -> Error (Printf.sprintf "bad %s line %S" label line))
  | _ -> Error (Printf.sprintf "expected %S line, got %S" label line)

let to_text e =
  String.concat "\n"
    [
      version_line;
      Printf.sprintf "seed %Ld" e.seed;
      Printf.sprintf "variant %s" (Delta.variant_to_string e.variant);
      tally_line "baseline" e.baseline;
      tally_line "hardened" e.hardened;
      "program:";
      Mir_text.to_string e.program;
    ]

let ( let* ) = Result.bind

let of_text text =
  let fail fmt = Printf.ksprintf (fun m -> Error ("corpus: " ^ m)) fmt in
  match String.index_opt text '\n' with
  | None -> fail "empty entry"
  | Some _ -> (
      let lines = String.split_on_char '\n' text in
      match lines with
      | v :: seed_l :: variant_l :: base_l :: hard_l :: marker :: rest ->
          if v <> version_line then fail "version %S, want %S" v version_line
          else if marker <> "program:" then
            fail "expected \"program:\" marker, got %S" marker
          else
            let* seed =
              match String.split_on_char ' ' seed_l with
              | [ "seed"; s ] -> (
                  match Int64.of_string_opt s with
                  | Some v -> Ok v
                  | None -> fail "bad seed %S" s)
              | _ -> fail "expected seed line, got %S" seed_l
            in
            let* variant =
              match String.split_on_char ' ' variant_l with
              | [ "variant"; s ] ->
                  Result.map_error (fun m -> "corpus: " ^ m)
                    (Delta.variant_of_string s)
              | _ -> fail "expected variant line, got %S" variant_l
            in
            let* baseline =
              Result.map_error (fun m -> "corpus: " ^ m)
                (tally_of_line "baseline" base_l)
            in
            let* hardened =
              Result.map_error (fun m -> "corpus: " ^ m)
                (tally_of_line "hardened" hard_l)
            in
            let* program = Mir_text.of_string (String.concat "\n" rest) in
            Ok { seed; variant; program; baseline; hardened }
      | _ -> fail "truncated entry")

let key e = Digest.to_hex (Digest.string (to_text e))

(* ------------------------------------------------------------------ *)
(* The store                                                           *)
(* ------------------------------------------------------------------ *)

let default_dir = Filename.concat "_artifacts" "corpus"

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let store ~dir e =
  mkdir_p dir;
  let path = Filename.concat dir (key e ^ ".fz") in
  if not (Sys.file_exists path) then begin
    (* Write-then-rename so a crashed writer never leaves a torn entry
       under a valid content address. *)
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc (to_text e);
    close_out oc;
    Sys.rename tmp path
  end;
  path

let load_file path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error m -> Error ("corpus: " ^ m)
  | text -> of_text text

let list ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      let paths =
        Array.to_list names
        |> List.filter (fun n -> Filename.check_suffix n ".fz")
        |> List.map (Filename.concat dir)
      in
      List.sort String.compare paths

let verify ?backend ?jobs ?secret e =
  Delta.verify ?backend ?jobs ?secret
    {
      Delta.program = e.program;
      seed = e.seed;
      variant = e.variant;
      baseline = e.baseline;
      hardened = e.hardened;
      sampled_failure_ratio = None;
    }
