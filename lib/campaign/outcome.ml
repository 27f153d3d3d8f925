type t =
  | No_effect
  | Corrected
  | Sdc
  | Output_truncated
  | Detected_fail_stop
  | Trap_memory
  | Trap_cpu
  | Timeout

let all =
  [ No_effect; Corrected; Sdc; Output_truncated; Detected_fail_stop;
    Trap_memory; Trap_cpu; Timeout ]

let to_string = function
  | No_effect -> "no_effect"
  | Corrected -> "corrected"
  | Sdc -> "sdc"
  | Output_truncated -> "output_truncated"
  | Detected_fail_stop -> "detected_fail_stop"
  | Trap_memory -> "trap_memory"
  | Trap_cpu -> "trap_cpu"
  | Timeout -> "timeout"

let of_string = function
  | "no_effect" -> Some No_effect
  | "corrected" -> Some Corrected
  | "sdc" -> Some Sdc
  | "output_truncated" -> Some Output_truncated
  | "detected_fail_stop" -> Some Detected_fail_stop
  | "trap_memory" -> Some Trap_memory
  | "trap_cpu" -> Some Trap_cpu
  | "timeout" -> Some Timeout
  | _ -> None

let index = function
  | No_effect -> 0
  | Corrected -> 1
  | Sdc -> 2
  | Output_truncated -> 3
  | Detected_fail_stop -> 4
  | Trap_memory -> 5
  | Trap_cpu -> 6
  | Timeout -> 7

let count = 8

let of_index = function
  | 0 -> No_effect
  | 1 -> Corrected
  | 2 -> Sdc
  | 3 -> Output_truncated
  | 4 -> Detected_fail_stop
  | 5 -> Trap_memory
  | 6 -> Trap_cpu
  | 7 -> Timeout
  | n -> invalid_arg (Printf.sprintf "Outcome.of_index: %d" n)

let to_char = function
  | No_effect -> 'n'
  | Corrected -> 'c'
  | Sdc -> 's'
  | Output_truncated -> 'o'
  | Detected_fail_stop -> 'd'
  | Trap_memory -> 'm'
  | Trap_cpu -> 'p'
  | Timeout -> 't'

let of_char = function
  | 'n' -> Some No_effect
  | 'c' -> Some Corrected
  | 's' -> Some Sdc
  | 'o' -> Some Output_truncated
  | 'd' -> Some Detected_fail_stop
  | 'm' -> Some Trap_memory
  | 'p' -> Some Trap_cpu
  | 't' -> Some Timeout
  | _ -> None

let pp ppf o = Format.pp_print_string ppf (to_string o)

let is_benign = function
  | No_effect | Corrected -> true
  | Sdc | Output_truncated | Detected_fail_stop | Trap_memory | Trap_cpu
  | Timeout ->
      false

let is_failure o = not (is_benign o)

(* ------------------------------------------------------------------ *)
(* Running outcome tallies                                            *)
(* ------------------------------------------------------------------ *)

type tally = int array (* indexed by [index] *)

let tally_create () = Array.make count 0
let tally_add t o = t.(index o) <- t.(index o) + 1
let tally_add_weight t o w = t.(index o) <- t.(index o) + w
let tally_total (t : tally) = Array.fold_left ( + ) 0 t
let tally_copy = Array.copy

let tally_failures t =
  List.fold_left
    (fun acc o -> if is_failure o then acc + t.(index o) else acc)
    0 all

let tally_merge ~into:(dst : tally) (src : tally) =
  Array.iteri (fun i n -> dst.(i) <- dst.(i) + n) src

let tally_to_list t =
  List.filter_map
    (fun o ->
      let n = t.(index o) in
      if n > 0 then Some (o, n) else None)
    all

let is_prefix ~prefix s =
  String.length prefix < String.length s
  && String.equal prefix (String.sub s 0 (String.length prefix))

let classify ~golden_output ~golden_event_count ~stop ~output ~event_count =
  match (stop : Machine.stop_reason) with
  | Machine.Trapped (Misaligned_access _ | Unmapped_access _ | Rom_write _) ->
      Trap_memory
  | Machine.Trapped (Bad_pc _ | Division_by_zero) -> Trap_cpu
  | Machine.Panicked _ -> Detected_fail_stop
  | Machine.Cycle_limit -> Timeout
  | Machine.Halted ->
      if String.equal output golden_output then
        if event_count > golden_event_count then Corrected else No_effect
      else if is_prefix ~prefix:output golden_output then Output_truncated
      else Sdc
