(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial).

    Guards every record of the campaign {!Journal} against torn writes
    and bit rot, and fingerprints campaign identities so a [--resume]
    never mixes shards of two different campaigns.  Pure stdlib,
    table-driven; digests are non-negative ints in [0, 2{^32}). *)

val string : string -> int
(** CRC-32 of a whole string. *)

val update : int -> string -> pos:int -> len:int -> int
(** Fold a substring into a running digest (start from [0]). *)

val add_char : int -> char -> int
(** Fold one character into a running digest: [add_char crc c] is
    [update crc (String.make 1 c) ~pos:0 ~len:1], without the string.
    For digests of text that is streamed rather than built. *)

val to_hex : int -> string
(** Fixed-width lowercase hex, e.g. ["cbf43926"]. *)

val of_hex : string -> int option
(** Inverse of {!to_hex}; [None] unless exactly 8 hex digits. *)
