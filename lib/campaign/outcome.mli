(** Experiment-outcome classification.

    The paper's campaigns (Section II-D) distinguish eight experiment
    outcome types, two of which — "No Effect" and "Detected & Corrected"
    — are benign (no externally visible deviation); the other six are
    coalesced into "Failure".  This module defines the same taxonomy for
    our machine. *)

type t =
  | No_effect
      (** Run indistinguishable from the golden run. *)
  | Corrected
      (** Output correct, but a fault-tolerance mechanism reported a
          detected-and-corrected event: benign. *)
  | Sdc
      (** Silent data corruption: run terminated normally but the serial
          output differs from the golden run. *)
  | Output_truncated
      (** Terminated normally with a proper prefix of the golden output —
          separated from {!Sdc} because it usually indicates a skipped
          computation rather than corrupted data. *)
  | Detected_fail_stop
      (** A mechanism detected an unrecoverable error and stopped the
          machine through the panic port. *)
  | Trap_memory
      (** CPU exception: unmapped/misaligned access or ROM write. *)
  | Trap_cpu
      (** CPU exception: bad jump target or division by zero. *)
  | Timeout
      (** Watchdog expired (e.g. a corrupted loop bound). *)

val all : t list
(** All outcomes, in the order above. *)

val to_string : t -> string
(** Stable identifier, e.g. ["sdc"]; inverse of {!of_string}. *)

val of_string : string -> t option

val pp : Format.formatter -> t -> unit

val is_benign : t -> bool
(** [No_effect] and [Corrected] — "can be interpreted as a benign
    behavior that has no visible effect from the outside". *)

val is_failure : t -> bool
(** Negation of {!is_benign}; the paper's coalesced "Failure" type. *)

val index : t -> int
(** Stable dense index, [0 .. count-1], in the order of {!all}. *)

val count : int
(** Number of outcome types ([8]). *)

val of_index : int -> t
(** Inverse of {!index}.  @raise Invalid_argument outside [0 .. count-1]. *)

val to_char : t -> char
(** One-character code used by the campaign-engine journal; inverse of
    {!of_char}. *)

val of_char : char -> t option

(** {1 Running tallies}

    A mutable per-outcome experiment counter, used by the engine's
    progress reporting and by sampling estimates, and cheap to update
    once per experiment. *)

type tally

val tally_create : unit -> tally
(** All-zero tally. *)

val tally_add : tally -> t -> unit
(** Count one experiment with the given outcome. *)

val tally_total : tally -> int

val tally_failures : tally -> int
(** Experiments whose outcome {!is_failure}. *)

val tally_copy : tally -> tally

val tally_merge : into:tally -> tally -> unit
(** [tally_merge ~into src] adds [src]'s counts into [into]. *)

val tally_to_list : tally -> (t * int) list
(** Non-zero counts in the order of {!all}. *)

val classify :
  golden_output:string ->
  golden_event_count:int ->
  stop:Machine.stop_reason ->
  output:string ->
  event_count:int ->
  t
(** Classify one finished experiment run against its golden run. *)
