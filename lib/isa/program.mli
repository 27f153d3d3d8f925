(** A complete executable image: code, read-only data, initial RAM
    contents, and the RAM size that defines the memory dimension Δm of the
    fault space. *)

type t = {
  name : string;  (** Benchmark identifier used in reports. *)
  code : Isa.instr array;  (** Instruction stream; entry point is index 0. *)
  rom : bytes;  (** Constant data, mapped at {!Memmap.rom_base}; immune to faults. *)
  ram_size : int;  (** Bytes of fault-susceptible RAM; Δm = 8·[ram_size] bits. *)
  ram_init : (int * bytes) list;
      (** Initial RAM contents as (offset, data) chunks, applied at reset.
          Initialised bytes count as defined at cycle 0 for def/use
          analysis. *)
  reg_init : (Isa.reg * int32) list;
      (** Initial register values, applied at reset (all other registers
          are zero).  Used by hand-written fixtures such as the paper's
          "Hi" program; compiled programs leave this empty. *)
  symbols : (string * int) list;
      (** Code labels, for diagnostics and disassembly. *)
  data_symbols : (string * int) list;
      (** Data labels (absolute addresses), for diagnostics. *)
}

val make :
  name:string ->
  code:Isa.instr array ->
  ?rom:bytes ->
  ?ram_init:(int * bytes) list ->
  ?reg_init:(Isa.reg * int32) list ->
  ?symbols:(string * int) list ->
  ?data_symbols:(string * int) list ->
  ram_size:int ->
  unit ->
  t
(** Smart constructor; validates that branch targets are inside the code,
    RAM size is positive, and initial chunks fit in RAM.

    @raise Invalid_argument on malformed images. *)

val code_length : t -> int
(** Number of instructions. *)

val find_data_symbol : t -> string -> int option
(** Look up a data label (absolute address). *)

val initial_ram : t -> bytes
(** A fresh RAM image of [ram_size] zero bytes with [ram_init] applied. *)

val pp_listing : Format.formatter -> t -> unit
(** Disassembly listing with labels and instruction indices. *)
