(** Memory-access traces.

    A golden (fault-free) run of a benchmark is observed through the
    machine's tracer hook; the recorded sequence of RAM accesses is the
    input to def/use pruning (Section III-C of the paper).  ROM and MMIO
    accesses are not recorded — they are outside the fault space.

    The trace is flat: each access is two ints in two growable arrays
    (its cycle, and its address, width and kind packed together), so a
    golden run of N accesses allocates a few arrays, not N records. *)

type kind = Read | Write

type t
(** A trace under construction or sealed. *)

val create : ram_size:int -> t
(** Empty trace for a machine with [ram_size] bytes of RAM. *)

val add : t -> cycle:int -> addr:int -> width:int -> kind:kind -> unit
(** Append one access: the instruction at [cycle] touched [width] bytes
    starting at RAM offset [addr].  Cycles must be non-decreasing.

    @raise Invalid_argument on out-of-range or out-of-order accesses. *)

val seal : t -> total_cycles:int -> unit
(** Declare the run finished after [total_cycles] executed instructions.
    No further {!add} is allowed.

    @raise Invalid_argument if an access beyond [total_cycles] was
    recorded. *)

val ram_size : t -> int
val total_cycles : t -> int
(** @raise Invalid_argument if the trace is not sealed. *)

val length : t -> int
(** Number of recorded accesses. *)

(** The [i]-th recorded access, [0 <= i < length t], in recording
    order: its cycle, first RAM byte, width and kind.  Allocation-free,
    for passes that walk the trace in either direction.

    @raise Invalid_argument outside [\[0, length t)]. *)

val cycle : t -> int -> int
val addr : t -> int -> int
val width : t -> int -> int
val kind : t -> int -> kind

val iter_byte_accesses : t -> (byte:int -> cycle:int -> kind:kind -> unit) -> unit
(** Visit every (byte, access) pair: a [width]-byte access yields [width]
    visits.  Order: execution order. *)
