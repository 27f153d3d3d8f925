type kind =
  | Hello
  | Job
  | Door
  | Seg
  | Err
  | Submit
  | Stat
  | Prog
  | Res

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let kind_byte = function
  | Hello -> '\001'
  | Job -> '\002'
  | Door -> '\003'
  | Seg -> '\004'
  | Err -> '\005'
  | Submit -> '\006'
  | Stat -> '\007'
  | Prog -> '\008'
  | Res -> '\009'

let kind_of_byte = function
  | '\001' -> Some Hello
  | '\002' -> Some Job
  | '\003' -> Some Door
  | '\004' -> Some Seg
  | '\005' -> Some Err
  | '\006' -> Some Submit
  | '\007' -> Some Stat
  | '\008' -> Some Prog
  | '\009' -> Some Res
  | _ -> None

let kind_tag = function
  | Hello -> "hello"
  | Job -> "job"
  | Door -> "door"
  | Seg -> "seg"
  | Err -> "err"
  | Submit -> "submit"
  | Stat -> "stat"
  | Prog -> "prog"
  | Res -> "res"

(* A frame that claims to be bigger than any message the protocol ships
   is garbage (or an attack), not a message: refuse before allocating. *)
let max_payload = 64 * 1024 * 1024

let header_len = 9 (* kind byte + 4-byte BE length + 4-byte BE CRC-32 *)

let put_u32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let get_u32 s off =
  (Char.code (Bytes.get s off) lsl 24)
  lor (Char.code (Bytes.get s (off + 1)) lsl 16)
  lor (Char.code (Bytes.get s (off + 2)) lsl 8)
  lor Char.code (Bytes.get s (off + 3))

(* The CRC covers the kind byte as well as the payload: a bit flip that
   turns one valid kind into another must surface as [Corrupt], never as
   a well-formed frame of the wrong kind. *)
let frame_crc kind_ch payload =
  let seed = Crc32.update 0 (String.make 1 kind_ch) ~pos:0 ~len:1 in
  Crc32.update seed payload ~pos:0 ~len:(String.length payload)

let encode kind payload =
  let n = String.length payload in
  if n > max_payload then
    invalid_arg (Printf.sprintf "Frame.encode: payload of %d bytes" n);
  let b = Bytes.create (header_len + n) in
  Bytes.set b 0 (kind_byte kind);
  put_u32 b 1 n;
  put_u32 b 5 (frame_crc (kind_byte kind) payload);
  Bytes.blit_string payload 0 b header_len n;
  Bytes.unsafe_to_string b

let send fd kind payload = Sysio.write_string fd (encode kind payload)

(* ------------------------------------------------------------------ *)
(* Incremental decoding                                               *)
(* ------------------------------------------------------------------ *)

(* The decoder owns a growable byte buffer: [feed] appends raw socket
   data, [next] peels complete frames off the front.  TCP gives no
   message boundaries, so a frame routinely arrives split across reads
   — partial frames simply stay buffered. *)
type decoder = { mutable buf : Bytes.t; mutable len : int }

let decoder () = { buf = Bytes.create 4096; len = 0 }

let buffered d = d.len

let feed d data off len =
  let need = d.len + len in
  if need > Bytes.length d.buf then begin
    let cap = ref (max 4096 (2 * Bytes.length d.buf)) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit d.buf 0 bigger 0 d.len;
    d.buf <- bigger
  end;
  Bytes.blit data off d.buf d.len len;
  d.len <- need

let feed_string d s = feed d (Bytes.unsafe_of_string s) 0 (String.length s)

let next d =
  if d.len < header_len then None
  else begin
    let kind =
      match kind_of_byte (Bytes.get d.buf 0) with
      | Some k -> k
      | None -> corrupt "unknown frame kind %d" (Char.code (Bytes.get d.buf 0))
    in
    let n = get_u32 d.buf 1 in
    if n > max_payload then corrupt "frame claims %d-byte payload" n;
    if d.len < header_len + n then None
    else begin
      let crc = get_u32 d.buf 5 in
      let payload = Bytes.sub_string d.buf header_len n in
      if frame_crc (Bytes.get d.buf 0) payload <> crc then
        corrupt "frame CRC mismatch (%s, %d bytes)" (kind_tag kind) n;
      let rest = d.len - header_len - n in
      Bytes.blit d.buf (header_len + n) d.buf 0 rest;
      d.len <- rest;
      Some (kind, payload)
    end
  end

(* ------------------------------------------------------------------ *)
(* Blocking receive (the worker side's simple loop)                   *)
(* ------------------------------------------------------------------ *)

let recv ?timeout ~chunk fd d =
  (* The timeout is a budget for the WHOLE frame, not per read: an
     absolute deadline shrinks the wait each round, so a peer dribbling
     one byte per near-timeout interval (a slow loris) cannot keep the
     receive — and a daemon worker's seat — alive forever. *)
  let deadline = Option.map (fun t -> Unix.gettimeofday () +. t) timeout in
  let rec go () =
    match next d with
    | Some frame -> Some frame
    | None -> (
        (match (deadline, timeout) with
        | Some dl, Some t ->
            let left = dl -. Unix.gettimeofday () in
            if left <= 0. || not (Sysio.wait_readable fd left) then
              corrupt "timed out waiting for a frame (%.1fs)" t
        | _ -> ());
        match Sysio.read_avail fd chunk with
        | `Eof -> if buffered d > 0 then corrupt "EOF inside a frame" else None
        | `Data k ->
            feed d chunk 0 k;
            go ()
        | `Nothing -> go ())
  in
  go ()
