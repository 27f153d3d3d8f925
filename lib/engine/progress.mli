(** Campaign observability: rates, ETA and live progress rendering.

    The engine reports through one channel, this module's
    {e observability hook}: a {!snapshot} of the whole matrix (classes,
    shards, experiments/second, ETA, outcome tallies, supervision
    counters) delivered once up front, after every completed shard and
    after every supervision event.  Snapshots are immutable
    copies — safe to retain, ship to another domain, or render from a
    UI thread. *)

type snapshot = {
  classes_done : int;  (** Classes complete, including resumed ones. *)
  classes_total : int;
  experiments_done : int;  (** [8 ×] classes_done. *)
  shards_done : int;  (** Shards complete, including resumed ones. *)
  shards_total : int;
  resumed_classes : int;
      (** Classes recovered from the journal rather than conducted. *)
  retries : int;
      (** Supervision re-dispatch events: each time a dead or killed
          worker's unfinished shards went back on the queue. *)
  kills : int;
      (** Workers SIGKILLed by the supervisor for blowing the shard
          deadline (hung or stalled). *)
  starts : int;
      (** Workers started in the call: local spawns and remote dials,
          failed ones included.  [0] on the domains backend and on a
          call the result store served whole. *)
  quarantined_shards : int;  (** Shards isolated after budget exhaustion. *)
  quarantined_classes : int;
      (** Classes those shards carry — never conducted this run. *)
  elapsed : float;  (** Seconds since the engine started. *)
  rate : float;
      (** Experiments conducted (resumed ones excluded) per second of
          elapsed wall-clock; [0.] until the first class completes. *)
  eta : float option;
      (** Estimated seconds to completion at the current rate. *)
  tally : Outcome.tally;  (** Outcome counts; a private copy. *)
}

type hook = snapshot -> unit

val finished : snapshot -> bool
(** Conducted plus quarantined classes cover the space: a
    quarantine-degraded campaign that accounted everything else is
    finished, not forever 99% done. *)

val make :
  classes_done:int ->
  classes_total:int ->
  shards_done:int ->
  shards_total:int ->
  resumed_classes:int ->
  ?retries:int ->
  ?kills:int ->
  ?starts:int ->
  ?quarantined_shards:int ->
  ?quarantined_classes:int ->
  elapsed:float ->
  tally:Outcome.tally ->
  unit ->
  snapshot
(** Derive the computed fields ([experiments_done], [rate], [eta]) from
    the raw counters.  Copies [tally].  The supervision counters default
    to [0] (an unsupervised campaign). *)

val render : snapshot -> string
(** One-line live progress suitable for a [\r]-refreshed terminal, e.g.
    ["[#######...] 61.2% 1788/2920 classes | 9 exp/ms | ETA 4.2s | 1033 failures"]. *)

val throttled : ?interval:float -> ?now:(unit -> float) -> hook -> hook
(** Rate-limit a hook to at most one call per [interval] seconds
    (default [0.1]); snapshots with {!finished} always pass through so
    the final state is never dropped. *)
