(* The artifact store: campaign journals at fingerprint-derived paths,
   and the content-addressed result index.

   A campaign cell that has finished anywhere need never run again: its
   key is a stable fingerprint of everything that determines its results
   — the assembled program image, the fault space, and the plan-shaping
   execution policy — and the store maps that key to the finished
   journal, which replays through the engine's normal CRC/fingerprint
   merge path to bit-identical results.

   "Where is MY campaign's journal" (for --resume) needs no index: the
   path is derived from the campaign CRC.  The index answers "has ANYONE
   finished this cell" (keyed by content, for free re-runs). *)

let default_dir = "_artifacts"

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let journal_path ~dir ~fingerprint =
  Filename.concat dir (Printf.sprintf "fi-%08x.journal" fingerprint)

let index_path ~dir = Filename.concat dir "results.idx"

(* ------------------------------------------------------------------ *)
(* Keying                                                             *)
(* ------------------------------------------------------------------ *)

(* The key folds in exactly the inputs that shape the cell's outcome
   table and shard geometry, under a versioned label so a future keying
   change invalidates cleanly rather than aliasing.  Supervision and
   journalling policy are deliberately absent: retries, timeouts and
   journal placement cannot change results, and including them would
   shatter the cache across equivalent runs. *)
let cell_key ~image ~space ~limit ~shard_size ~weighted =
  let opt = function None -> "none" | Some n -> string_of_int n in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "fi-cache v1|image=%s|space=%s|limit=%s|shard=%s|weighted=%b"
          image space (opt limit) (opt shard_size) weighted))

let key_length = 32 (* hex MD5 *)

(* ------------------------------------------------------------------ *)
(* The index                                                          *)
(* ------------------------------------------------------------------ *)

type entry = {
  key : string;  (** {!cell_key} hex. *)
  fingerprint : int;  (** Campaign CRC-32 of the journal's campaign. *)
  path : string;  (** The finished journal. *)
}

let is_hex s = String.for_all (function
  | '0' .. '9' | 'a' .. 'f' -> true
  | _ -> false) s

(* One line per entry: 32-hex key, space, 8-hex campaign fingerprint,
   space, journal path (which may itself contain spaces). *)
let parse_line line =
  if
    String.length line >= key_length + 11
    && line.[key_length] = ' '
    && line.[key_length + 9] = ' '
  then
    let key = String.sub line 0 key_length in
    let fp_hex = String.sub line (key_length + 1) 8 in
    let path =
      String.sub line (key_length + 10) (String.length line - key_length - 10)
    in
    if is_hex key then
      match int_of_string_opt ("0x" ^ fp_hex) with
      | Some fingerprint when is_hex fp_hex -> Some { key; fingerprint; path }
      | _ -> None
    else None
  else None

let encode_line e = Printf.sprintf "%s %08x %s" e.key e.fingerprint e.path

let entries ~dir =
  match open_in_bin (index_path ~dir) with
  | exception Sys_error _ -> []
  | ic ->
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      List.filter_map parse_line (String.split_on_char '\n' text)

let lookup ~dir key =
  List.fold_left
    (fun acc e -> if e.key = key then Some e else acc)
    None (entries ~dir)

let publish ~dir ~key ~fingerprint ~path =
  ensure_dir dir;
  Lockfile.with_lock (index_path ~dir) (fun () ->
      (* Re-check under the lock: a concurrent campaign may have
         published the same cell while we were finishing ours. *)
      match lookup ~dir key with
      | Some e when e.fingerprint = fingerprint && e.path = path -> ()
      | _ ->
          let oc =
            open_out_gen
              [ Open_append; Open_creat; Open_binary ]
              0o644 (index_path ~dir)
          in
          output_string oc (encode_line { key; fingerprint; path } ^ "\n");
          close_out oc)

(* Paths as published, and the files they name: the index records paths
   as the publishing campaign spelled its directory, which need not be
   how the caller spells it. *)
let referenced ~dir =
  let file path =
    match Unix.stat path with
    | st -> Some (st.Unix.st_dev, st.Unix.st_ino)
    | exception Unix.Unix_error _ -> None
  in
  let paths = Hashtbl.create 16 and files = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace paths e.path ();
      Option.iter (fun f -> Hashtbl.replace files f ()) (file e.path))
    (entries ~dir);
  fun path ->
    Hashtbl.mem paths path
    || match file path with Some f -> Hashtbl.mem files f | None -> false
