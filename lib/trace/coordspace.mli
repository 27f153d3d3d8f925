(** A raw fault-space coordinate.

    [(cycle, bit)] means: disturb row [bit] immediately before the
    instruction executing at [cycle] (1-indexed).  What a row is depends
    on the fault model — a RAM bit, a register-file bit, or the single
    row of the instruction-skip space; [Faultspace] owns each model's
    axes and maps a coordinate to the experiment that stands for it. *)

type coord = { cycle : int; bit : int }
