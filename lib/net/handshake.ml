let protocol_version = 1

let self_digest_memo = ref None

let self_digest () =
  match !self_digest_memo with
  | Some d -> d
  | None ->
      let d =
        try Digest.to_hex (Digest.file Sys.executable_name)
        with Sys_error _ -> "unknown"
      in
      self_digest_memo := Some d;
      d

type hello = {
  version : int;
  digest : string;
  capacity : int;  (** Worker slots advertised (server), [0] otherwise. *)
  mac : string;  (** HMAC tag over the rest of the hello, [""] if unkeyed. *)
}

(* The MAC covers everything else in the hello, so a keyed peer cannot
   have its advertised digest or capacity tampered with in transit. *)
let encode_base h =
  Printf.sprintf "fi-net hello version=%d digest=%s cap=%d" h.version h.digest
    h.capacity

let hello ?(capacity = 0) ?secret () =
  let h =
    { version = protocol_version; digest = self_digest (); capacity; mac = "" }
  in
  match secret with
  | None -> h
  | Some key -> { h with mac = Hmac.mac ~key (encode_base h) }

let encode h =
  if h.mac = "" then encode_base h
  else Printf.sprintf "%s mac=%s" (encode_base h) h.mac

let key_value tok =
  match String.index_opt tok '=' with
  | Some i ->
      Some
        ( String.sub tok 0 i,
          String.sub tok (i + 1) (String.length tok - i - 1) )
  | None -> None

let decode s =
  match String.split_on_char ' ' s with
  | "fi-net" :: "hello" :: fields ->
      let assoc = List.filter_map key_value fields in
      let int_field k =
        Option.bind (List.assoc_opt k assoc) int_of_string_opt
      in
      let str_field k = Option.value ~default:"" (List.assoc_opt k assoc) in
      (match (int_field "version", List.assoc_opt "digest" assoc) with
      | Some version, Some digest ->
          Some
            {
              version;
              digest;
              capacity = Option.value ~default:0 (int_field "cap");
              mac = str_field "mac";
            }
      | _ -> None)
  | _ -> None

(* The binary digest is the load-bearing check: job payloads are
   marshalled plain data, sound only between identical executables —
   and identical executables also guarantee identical analyses, which
   is what keeps remote results bit-identical.  An "unknown" digest
   (unreadable executable) must therefore refuse, not match: two
   different binaries that both failed to hash would otherwise compare
   equal and wave unsound Marshal data through. *)
let check_identity ~mine ~theirs =
  if mine.digest = "unknown" || theirs.digest = "unknown" then
    Error
      (Printf.sprintf
         "binary digest unavailable (%s executable unreadable) — refusing: \
          the digest check is what makes shipped jobs safe to unmarshal"
         (if mine.digest = "unknown" then "our" else "peer's"))
  else if theirs.digest <> mine.digest then
    Error
      (Printf.sprintf
         "binary digest mismatch: peer runs %s, we run %s — deploy the same \
          executable on every host"
         theirs.digest mine.digest)
  else Ok ()

(* Auth is checked before identity: a peer outside the deployment's
   trust domain learns nothing about which binary we run from the
   refusal.  The three auth failures are deliberately distinct — "you
   sent no tag", "you demand a secret we lack", "our secrets differ" —
   because they call for three different operator fixes. *)
let check ?secret ~mine ~theirs () =
  if theirs.version <> mine.version then
    Error
      (Printf.sprintf "protocol version mismatch: peer speaks v%d, we speak v%d"
         theirs.version mine.version)
  else
    match (secret, theirs.mac) with
    | Some _, "" ->
        Error
          "peer sent no auth tag but this end requires a shared secret \
           (--secret) — refusing"
    | None, tag when tag <> "" ->
        Error
          "peer requires a shared secret this end was not given (--secret) — \
           refusing"
    | Some key, tag when not (Hmac.verify ~key (encode_base theirs) tag) ->
        Error
          "shared-secret mismatch: peer's auth tag does not verify — the two \
           ends hold different secrets"
    | _ -> check_identity ~mine ~theirs
