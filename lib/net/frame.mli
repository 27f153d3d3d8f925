(** Length-prefixed, CRC-framed messages — the socket transport's unit
    of exchange.

    A frame is [kind (1 byte) · payload length (u32 BE) · CRC-32 of
    kind + payload (u32 BE) · payload].  The CRC extends the campaign
    journal's per-record guard to the wire: a flipped bit in transit —
    in the payload or in the kind byte itself — surfaces as {!Corrupt},
    never as a silently wrong (or wrongly typed) shard record.  TCP
    preserves order but not boundaries, so receiving is split into
    {!feed} (append raw bytes) and {!next} (peel one complete frame),
    with partial frames staying buffered. *)

type kind =
  | Hello  (** Handshake, both directions ({!Handshake}). *)
  | Job  (** One campaign job, client → worker ({!Remote} wire format). *)
  | Door  (** Doorbell line, worker → client: [h], [s <id>], [end]. *)
  | Seg  (** One journal-format line (CRC-hex + payload), worker → client. *)
  | Err  (** Human-readable refusal/failure, either direction, then close. *)
  | Submit  (** One campaign/matrix submission, client → service ({!Service}). *)
  | Stat  (** Service status line, service → client. *)
  | Prog  (** Rendered {!Progress} snapshot for a running cell, service → client. *)
  | Res  (** Final result payload for a submission, service → client, then close. *)

exception Corrupt of string
(** A frame-level violation: unknown kind, oversized length, payload CRC
    mismatch, EOF mid-frame, or a receive timeout.  The connection is
    unusable afterwards — tear it down. *)

val kind_tag : kind -> string
val max_payload : int

val header_len : int
(** Bytes before the payload: kind + length + CRC. *)

val encode : kind -> string -> string
(** @raise Invalid_argument if the payload exceeds {!max_payload}. *)

val send : Unix.file_descr -> kind -> string -> unit
(** [encode] + {!Sysio.write_string}. *)

type decoder

val decoder : unit -> decoder
val feed : decoder -> bytes -> int -> int -> unit
val feed_string : decoder -> string -> unit

val buffered : decoder -> int
(** Bytes currently buffered (partial frame included). *)

val next : decoder -> (kind * string) option
(** Peel the next complete frame, or [None] if more bytes are needed.
    @raise Corrupt on a framing violation (the decoder is then stuck —
    discard the connection). *)

val recv :
  ?timeout:float ->
  chunk:Bytes.t ->
  Unix.file_descr ->
  decoder ->
  (kind * string) option
(** Blocking receive: read (through the caller's [chunk], so a worker
    serving job after job allocates no read buffer) and {!feed} until
    one frame completes.
    [None] on clean EOF between frames.  [timeout] is a budget for the
    whole frame (an absolute deadline), not per read — dribbling bytes
    cannot stretch it.
    @raise Corrupt on a framing violation, EOF inside a frame, or when
    [timeout] seconds pass without a complete frame. *)
