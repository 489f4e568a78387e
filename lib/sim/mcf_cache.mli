(** Memo cache for the optimal-MCF normalizer.

    The per-scenario optimal bottleneck ([Eval.optimal]) is a pure
    function of (topology, commodities, demands, failure set) under one
    solver, the exact per-destination LP. This cache keys on exactly
    that: a {e context digest} over everything but the failure set, a
    fixed tag naming the solver included, picks the table (and the
    on-disk file), and {!Scenario.key} picks the entry. Values survive
    the disk round-trip bit-identically (hex floats), so warm runs
    reproduce cold runs exactly.

    Concurrency: {!find} is safe from parallel sweep workers {e only while
    no writer runs}; {!add}/{!flush} must be called from a single domain
    between parallel sections (the discipline [Sweep.run] follows). *)

type t

(** [create ?dir ~graph ~pairs ~demands ()] — in-memory table,
    optionally backed by [dir/mcf-<context>.cache] (created by {!flush};
    loaded eagerly if present). The conventional [dir] is [".bench-cache"]. *)
val create :
  ?dir:string ->
  graph:R3_net.Graph.t ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  demands:float array ->
  unit ->
  t

(** The context digest (hex MD5) this cache is keyed under. *)
val context : t -> string

val size : t -> int
val find : t -> Scenario.t -> float option
val add : t -> Scenario.t -> float -> unit

(** Persist to disk (no-op for purely in-memory caches or when clean).
    Crash-safe: the file is written to a temp sibling and renamed into
    place, so an interrupted flush (or a concurrent one from another
    process) leaves the previous file readable. *)
val flush : t -> unit
