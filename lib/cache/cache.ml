(* The artifact store: campaign journals at fingerprint-derived paths,
   and the content-addressed result entries.

   A campaign cell that has finished anywhere need never run again: its
   key is a stable fingerprint of everything that determines its results
   — the assembled program image, the fault space, and the plan-shaping
   execution policy — and the store maps that key to the finished
   journal, which replays through the engine's normal CRC/fingerprint
   merge path to bit-identical results.

   "Where is MY campaign's journal" (for --resume) needs no index: the
   path is derived from the campaign CRC.  An entry file, named by the
   cell key, answers "has ANYONE finished this cell" (keyed by content,
   for free re-runs). *)

let default_dir = "_artifacts"

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let journal_path ~dir ~fingerprint =
  Filename.concat dir (Printf.sprintf "fi-%08x.journal" fingerprint)

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
(* Entries                                                            *)
(* ------------------------------------------------------------------ *)

type entry = {
  key : string;  (** {!cell_key} hex. *)
  fingerprint : int;  (** Campaign CRC-32 of the journal's campaign. *)
  path : string;  (** The finished journal. *)
}

let is_hex s = String.for_all (function
  | '0' .. '9' | 'a' .. 'f' -> true
  | _ -> false) s

let entry_suffix = ".result"
let entry_path ~dir key = Filename.concat dir (key ^ entry_suffix)

(* An entry file holds one line: 8-hex campaign fingerprint, space,
   journal path (which may itself contain spaces), newline. *)
let parse_entry key text =
  let n = String.length text in
  if n >= 11 && text.[8] = ' ' && text.[n - 1] = '\n' then
    let fp_hex = String.sub text 0 8 in
    if is_hex fp_hex then
      Some
        {
          key;
          fingerprint = int_of_string ("0x" ^ fp_hex);
          path = String.sub text 9 (n - 10);
        }
    else None
  else None

let lookup ~dir key =
  match open_in_bin (entry_path ~dir key) with
  | exception Sys_error _ -> None
  | ic ->
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      parse_entry key text

let entries ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      let keys =
        List.filter_map
          (fun name ->
            if Filename.check_suffix name entry_suffix then
              let key = Filename.chop_suffix name entry_suffix in
              if String.length key = key_length && is_hex key then Some key
              else None
            else None)
          (Array.to_list names)
      in
      List.filter_map (lookup ~dir) (List.sort compare keys)

(* Written whole to a fresh file beside the entry, then renamed over it:
   rename is atomic, so concurrent publishers need no lock — the last
   rename wins, and a reader opens either a complete entry or none. *)
let publish ~dir ~key ~fingerprint ~path =
  ensure_dir dir;
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o644 ~temp_dir:dir
      (key ^ ".") ".tmp"
  in
  try
    Printf.fprintf oc "%08x %s\n" fingerprint path;
    close_out oc;
    Sys.rename tmp (entry_path ~dir key)
  with exn ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise exn

(* Paths as published, and the files they name: an entry records the
   path as the publishing campaign spelled its directory, which need
   not be how the caller spells it. *)
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
