(** Event-driven online reconfiguration runtime.

    The paper's online phase (§3.2, §4) is a distributed protocol: when a
    link fails or recovers, the detecting router floods a notification and
    every router {e locally} rescales its copy of the protection routing —
    Theorem 3 proves the rescaling is order-independent, so routers need no
    coordination. The batch entry points ({!R3_core.Reconfig.fail}) exercise
    only the synchronous limit of that protocol. This engine simulates the
    asynchronous reality:

    - it consumes a timestamped stream of physical link failure/recovery
      {!event}s (write your own or use the seeded {!generate});
    - per-router notifications travel through a pluggable {!Channel}: the
      ideal channel uses the default flooding latencies of
      {!R3_mplsff.Notify},
      the fault-injected one adds jitter (reordering), duplication, and
      drop-with-retry/backoff;
    - each router maintains a per-link event-version vector and its own
      believed failure set; an accepted notification advances the router's
      routing view by incremental {!R3_core.Reconfig.fail}/[recover] deltas
      on the copy-on-write substrate (views of equal believed sets share
      one memoized state, so the whole run costs O(distinct sets) folds);
    - router views are always the {e canonical} batch state of the believed
      set, so at quiescence every router must be bit-identical to
      [Reconfig.fail root final_scenario] — the order-independence theorem
      as an executable property, checked on every {!run};
    - optionally it maintains per-router MPLS-ff FIBs through
      {!R3_mplsff.Fib.update_router} in notification-arrival order and
      checks the result against a full rebuild;
    - the data-plane state (failures activated at their head router) is
      tracked between deliveries: transient MLU-above-bound windows and the
      convergence latency of every event are recorded in {!stats} and the
      [r3.online.*] metrics. *)

type event_kind = Fail | Recover

type event = {
  at_ms : float;  (** absolute event time *)
  link : R3_net.Graph.link;
      (** physical link, by canonical representative (lower id of the
          bidirectional pair); both directions fail/recover together *)
  kind : event_kind;
}

(** Deterministic seeded failure/recovery schedule: exponential gaps with
    a 250 ms mean, never more than [max_concurrent] links down at once
    (default 2), never disconnecting the surviving graph (so notification
    flooding always reaches every router), recovering a downed link with
    probability 0.6 when both moves are legal. Equal seeds give equal
    schedules. *)
val generate :
  R3_net.Graph.t ->
  seed:int ->
  events:int ->
  ?max_concurrent:int ->
  unit ->
  event list

module Channel : sig
  (** Fault-injection knobs of the notification channel. Every parameter
      is per notification copy; dropped copies are retransmitted after
      [backoff_ms] up to [max_retries] times, and the last attempt always
      arrives — the channel is reliable-eventually, which is what the
      terminal-state guarantee needs (a permanently partitioned router
      could never converge). *)
  type faults = {
    jitter_ms : float;  (** uniform extra latency in [0, jitter) — reorders *)
    dup_prob : float;  (** probability of an extra duplicate copy (geometric) *)
    drop_prob : float;  (** probability an attempt is lost *)
    max_retries : int;  (** retransmissions before the guaranteed attempt *)
    backoff_ms : float;  (** wait between retransmissions *)
  }

  (** 15 ms jitter, 20% duplication, 20% drop, 5 retries, 40 ms backoff. *)
  val default_faults : faults

  type t

  (** Flooding latencies from {!R3_mplsff.Notify.arrival_times} at
      {!R3_mplsff.Notify.default_config} (layer-2 detection plus per-hop
      processing), no faults. *)
  val ideal : unit -> t

  (** {!ideal} plus fault injection. *)
  val faulty : faults -> t

  val name : t -> string
end

type stats = {
  events : int;
  deliveries : int;  (** notification copies processed *)
  stale : int;  (** copies ignored as duplicates or superseded versions *)
  drops : int;  (** copies lost by the channel *)
  retries : int;  (** retransmissions that followed those losses *)
  distinct_states : int;  (** memoized canonical states materialized *)
  convergence_ms : float array;
      (** per event (schedule order): time from the event until every
          router had accepted a version >= that event's *)
  transient_mlu_peak : float;
      (** worst data-plane MLU observed between deliveries *)
  min_delivered : float;
      (** worst data-plane delivered fraction observed *)
  violation_windows : (float * float) list;
      (** maximal [(start_ms, end_ms)] windows where the data-plane MLU
          exceeded the bound, oldest first *)
}

type outcome = {
  terminal : R3_core.Reconfig.state;
      (** the canonical state of the schedule's final failed set *)
  order_independent : bool;
      (** every router's terminal view is bit-identical to batch
          [Reconfig.fail root final_scenario] — Theorem 3, executable *)
  fib_consistent : bool;
      (** per-router FIB updates in delivery order landed on the full
          rebuild ([true] when [fibs:false]) *)
  quiescent_mlu : float;  (** MLU of {!terminal} *)
  stats : stats;
}

(** Crash-safe snapshots of a paused run's protocol state (per-router
    version vectors and believed-failure views, data-plane beliefs,
    convergence accounting, transient-MLU bookkeeping). The delivery
    schedule itself is {e not} stored — it is a deterministic function of
    (root, events, channel, seed) and is re-expanded on resume; a digest
    of that tuple is stored instead, so resuming against a different
    plan, schedule, channel or seed is rejected. Persisted via
    {!R3_util.Codec} frames (magic ["R3ONLNCK"]): atomic writes,
    CRC/version-checked loads. *)
module Checkpoint : sig
  type t

  (** Deliveries already processed when the checkpoint was taken. *)
  val cursor : t -> int

  val save : string -> t -> unit
  val load : string -> (t, string) result
end

(** [run root events] drives the engine to quiescence. [channel] defaults
    to {!Channel.ideal}; [seed] (default 0) seeds the channel's fault
    streams; [mlu_bound] (default [infinity]) is the plan's congestion
    bound MLU* for transient-violation accounting; [fibs] (default
    [false]) also maintains per-router MPLS-ff FIBs. Deterministic in
    ([root], [events], [channel], [seed]). Traced as an [online.run] span
    with three children: [online.schedule] (flood times, fault expansion,
    sort), [online.deliver] (the delivery loop) and [online.verify] (the
    batch fold and the order-independence and FIB checks). *)
val run :
  ?channel:Channel.t ->
  ?seed:int ->
  ?mlu_bound:float ->
  ?fibs:bool ->
  R3_core.Reconfig.state ->
  event list ->
  outcome

(** [run_to ?resume ?stop_after root events] is {!run} with pause/resume:
    with [stop_after:k] it processes at most [k] further notification
    deliveries and returns [`Paused checkpoint] if the schedule is not
    exhausted; with [resume:ck] it restores a checkpoint (rebuilding
    router views, FIBs and the data-plane state from the believed sets)
    and continues where the paused run stopped. A completed
    resumed run returns an {!outcome} whose terminal state — and every
    per-router view — is bit-identical to the uninterrupted run's
    ([stats.distinct_states] may legitimately differ: states that were
    only visited before the pause are not re-materialized). Raises
    [Invalid_argument] if [resume] was recorded for a different
    (root, events, channel, seed, mlu_bound, fibs) tuple. *)
val run_to :
  ?channel:Channel.t ->
  ?seed:int ->
  ?mlu_bound:float ->
  ?fibs:bool ->
  ?resume:Checkpoint.t ->
  ?stop_after:int ->
  R3_core.Reconfig.state ->
  event list ->
  [ `Done of outcome | `Paused of Checkpoint.t ]
