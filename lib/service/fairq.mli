(** Fair FIFO-per-client admission queue — the campaign service's job
    queue.

    Jobs are FIFO {e within} a client and round-robin {e across}
    clients: with clients A (three queued jobs) and B (one), service
    order is A1 B1 A2 A3 — a flooding client delays only itself.  The
    admission window bounds each client's pending jobs; {!admit}
    refuses past it so back-pressure is explicit and immediate. *)

type 'a t

val create : window:int -> 'a t
(** @raise Invalid_argument if [window < 1]. *)

val admit : 'a t -> client:string -> 'a -> (int, string) result
(** Enqueue for [client]; [Ok depth] is the client's queue depth after
    admission, [Error] explains a refused (window-full) submission. *)

val take : 'a t -> (string * 'a) option
(** Next job in round-robin-across-clients, FIFO-within-client order. *)

val pending : 'a t -> int
(** Jobs queued across all clients. *)

val clients : 'a t -> int
