(** The connection preamble: protocol version + binary digest.

    Both ends exchange a {!hello} frame first.  {!check} refuses a peer
    whose protocol version or executable digest differs — the wire job
    format is marshalled plain data, sound only between byte-identical
    binaries, and byte-identical binaries are also what makes remote
    analysis (and therefore campaign results) bit-identical.  A
    campaign's fingerprint is checked per job, by the worker's own
    re-analysis (see {!Remote}): one connection carries many cells. *)

val self_digest : unit -> string
(** Hex MD5 of [Sys.executable_name], memoized ("unknown" if the
    executable cannot be read — {!check} refuses such hellos, on either
    side, so two unhashable binaries can never pass as identical). *)

type hello = {
  version : int;
  digest : string;
  capacity : int;  (** Advertised worker slots (server side), else [0]. *)
  mac : string;
      (** {!Hmac} tag over the rest of the hello when a shared secret is
          in force, [""] otherwise. *)
}

val hello : ?capacity:int -> ?secret:string -> unit -> hello
(** This process's hello: the protocol version (1) + {!self_digest}.  With
    [?secret], the hello carries an HMAC tag over its other fields. *)

val encode : hello -> string
val decode : string -> hello option

val check : ?secret:string -> mine:hello -> theirs:hello -> unit -> (unit, string) result
(** Version, shared-secret, and digest equality; the error names the
    mismatch.  Auth failures are distinct: a peer that sent no tag while
    we hold a secret, a peer that demands a secret we lack, and a tag
    that fails to verify each refuse with their own message.  An
    ["unknown"] digest on either side is itself a refusal — the digest
    guard is what makes the wire job's [Marshal] payload safe. *)
