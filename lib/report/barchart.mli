(** Horizontal ASCII bar charts, used to render the Figure-2 panels. *)

val render :
  ?width:int ->
  ?unit_label:string ->
  (string * float) list ->
  string
(** [render series] draws one bar per (label, value); bars are scaled to
    the maximum value into [width] (default 48) characters.  Values are
    printed after each bar with [unit_label] appended. *)
