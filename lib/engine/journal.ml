type writer = { fd : Unix.file_descr; mutable closed : bool }

let encode_line payload =
  if String.contains payload '\n' then
    invalid_arg "Journal.encode_line: payload contains a newline";
  Printf.sprintf "%s %s" (Crc32.to_hex (Crc32.string payload)) payload

let append w payload =
  if w.closed then invalid_arg "Journal.append: closed";
  if String.contains payload '\n' then
    invalid_arg "Journal.append: payload contains a newline";
  Sysio.write_string w.fd (encode_line payload ^ "\n");
  Unix.fsync w.fd

let close w =
  if not w.closed then begin
    w.closed <- true;
    Unix.close w.fd
  end

(* Always a fresh file: an old journal at [path] is unlinked, not
   truncated, so a reader that still holds it open reads it whole, and
   the new journal never shares an inode with the old one. *)
let create path ~header =
  let fresh () = Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_EXCL ] 0o644 in
  let fd =
    try fresh ()
    with Unix.Unix_error (Unix.EEXIST, _, _)
      when (Unix.lstat path).Unix.st_kind = Unix.S_REG ->
      Unix.unlink path;
      fresh ()
  in
  let w = { fd; closed = false } in
  append w header;
  w

let decode_line line =
  if String.length line >= 9 && line.[8] = ' ' then
    match Crc32.of_hex (String.sub line 0 8) with
    | Some crc ->
        let payload = String.sub line 9 (String.length line - 9) in
        if crc = Crc32.string payload then Some payload else None
    | None -> None
  else None

type recovery =
  | Clean
  | Torn_tail of int
  | Corrupt_record of { line : int }

(* Scan the raw bytes for the longest prefix of valid records.  Returns
   the records' payloads, the byte length of that prefix, and how the
   scan ended: [Clean] (every byte accounted for), [Torn_tail] (the last
   line has no terminating newline — the signature of a crashed append),
   or [Corrupt_record] (a {e complete} line fails its CRC — a single
   writer cannot produce that by crashing, so the storage, not the
   campaign, is at fault). *)
let scan_prefix text =
  let len = String.length text in
  let records = ref [] in
  let pos = ref 0 in
  let line = ref 0 in
  let recovery = ref Clean in
  let stop = ref false in
  while (not !stop) && !pos < len do
    incr line;
    match String.index_from_opt text !pos '\n' with
    | None ->
        recovery := Torn_tail (len - !pos);
        stop := true
    | Some nl -> (
        match decode_line (String.sub text !pos (nl - !pos)) with
        | Some payload ->
            records := payload :: !records;
            pos := nl + 1
        | None ->
            recovery := Corrupt_record { line = !line };
            stop := true)
  done;
  (List.rev !records, !pos, !recovery)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some text

let replay path =
  match read_file path with
  | None -> None
  | Some text -> (
      match scan_prefix text with
      | header :: records, _, recovery -> Some (header, records, recovery)
      | [], _, _ -> None)

(* A torn or CRC-invalid header is no journal at all, so [[]] is
   matched before [Corrupt_record]. *)
let open_resume path =
  match read_file path with
  | None -> Ok None
  | Some text -> (
      match scan_prefix text with
      | [], _, _ -> Ok None
      | _, _, Corrupt_record { line } -> Error line
      | header :: records, prefix_len, _ ->
          let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd prefix_len;
          ignore (Unix.lseek fd prefix_len Unix.SEEK_SET);
          Ok (Some ({ fd; closed = false }, header, records)))
