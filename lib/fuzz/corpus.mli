(** Content-addressed regression corpus of mined counterexamples.

    Each entry is one dilution-delusion finding, stored as a single
    self-describing text file: a versioned header (seed, variant, both
    exact tallies) followed by the program in {!Mir_text} form.  The
    file name is the hex MD5 of the entry's canonical text, so the store
    is content-addressed: storing the same finding twice is a no-op, and
    any on-disk corruption is detectable by re-keying.

    Entries are plain text precisely so they can be checked into version
    control and replayed {e bit-identically} on another host, OCaml
    version or engine backend: {!verify} recompiles the program from
    text, re-conducts both campaigns on a fresh engine, and requires
    exact tally equality plus the dilution predicate. *)

type entry = {
  seed : int64;  (** Per-program generator seed (provenance). *)
  variant : Delta.variant;
  program : Mir.prog;
  baseline : Delta.tally;
  hardened : Delta.tally;
}

val of_finding : Delta.finding -> entry

val to_text : entry -> string
(** Canonical rendering; [of_text (to_text e) = Ok e]. *)

val of_text : string -> (entry, string) result

val key : entry -> string
(** Hex MD5 of {!to_text} — the entry's content address. *)

val default_dir : string
(** ["_artifacts/corpus"]. *)

val store : dir:string -> entry -> string
(** Write the entry to [dir/<key>.fz] (creating [dir]) and return the
    path.  Idempotent: an existing file with the same key is left
    untouched. *)

val load_file : string -> (entry, string) result

val list : dir:string -> string list
(** All [*.fz] paths under [dir], sorted; [[]] if [dir] is missing. *)

val verify :
  ?backend:Pool.backend ->
  ?jobs:int ->
  ?secret:string ->
  entry ->
  (unit, string) result
(** {!Delta.verify} of the entry's finding: fresh campaigns on [backend]
    (authenticated with [secret], for an armed fleet) must reproduce
    both stored tallies exactly and re-establish the inversion. *)
