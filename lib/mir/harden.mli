(** Software-based hardware fault-tolerance passes over MIR.

    These reproduce the class of mechanisms evaluated in the paper:
    the authors' library [8] protects "critical data with long lifetimes"
    by weaving checksum and replication maintenance around the functions
    that use the data (Generic Object Protection).  Here, globals marked
    [g_protected] are the critical objects, and functions listing them in
    [f_protects] are instrumented: an integrity {e check} (with recovery)
    runs at function entry, and a replica/checksum {e update} runs at
    every function exit.

    Functions that only {e read} a protected object receive check-only
    instrumentation (no exit update) — the "get" flavour of the paper's
    GOP weaving; functions that write it get check-and-update.

    Detected-and-corrected errors are reported through the detection port
    ({!Event_codes.corrected}) and classify as benign; uncorrectable mismatches
    report {!Event_codes.detected} and fail-stop (panic code 0xDEAD).

    The passes are purely source-to-source: the output is an ordinary MIR
    program whose fault-space dimensions (runtime and memory overhead)
    honestly reflect the mechanism's cost — the property the paper's
    dilution argument (Section IV) turns on. *)

val sum_dmr : Mir.prog -> Mir.prog
(** SUM+DMR, the paper's evaluated configuration: each protected global
    gets one replica plus an additive checksum per copy.  Check: if the
    primary checksum mismatches, restore from the replica when the
    replica's checksum validates, else fail-stop.  Program name gains
    ["+sumdmr"]. *)

val tmr : Mir.prog -> Mir.prog
(** Triple modular redundancy (extension): two replicas, per-word
    majority vote at check time.  Name gains ["+tmr"]. *)
