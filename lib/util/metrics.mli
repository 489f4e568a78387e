(** Process-wide, domain-safe metrics: counters, gauges and histograms.

    Built for the R3 hot paths (simplex pivots, constraint-generation
    rounds, MCF phases, sweep cache traffic): every instrument is sharded
    into {!n_shards} cells and a writer touches only the cell indexed by
    its own domain id, so parallel sweep workers never contend. Readers
    ({!snapshot}, {!to_json}) merge the shards on demand.

    Instruments are interned by name — [counter "lp.pivots"] returns the
    same counter everywhere — so producers resolve handles at module
    initialization and consumers (CLI [--metrics], [r3 profile], the bench
    harness) export the whole registry without coordination.

    Recording is on by default and costs one atomic load plus one sharded
    atomic add per event; {!set_enabled}[ false] reduces every instrument
    to the atomic load alone (the bench harness measures exactly this
    delta). *)

(** Number of shards per instrument (>= the Parallel domain cap). *)
val n_shards : int

val set_enabled : bool -> unit
val enabled : unit -> bool

(** Zero every registered instrument (registry itself is kept). *)
val reset : unit -> unit

(** {2 Counters} *)

type counter

(** Intern (find or create) the counter with this name. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit

(** Merged total across shards. *)
val counter_total : counter -> int

(** Raw per-shard values (index = domain id mod {!n_shards}) — the
    per-domain breakdown the sweep engine reports as task counts. *)
val counter_shards : counter -> int array

(** Merged total of the counter registered under [name]; 0 if absent. *)
val counter_value : string -> int

(** {2 Gauges (last-write-wins float)} *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit

(** [None] until the first {!set_gauge}. *)
val gauge_value : gauge -> float option

(** {2 Histograms} *)

type histogram

type hist_snapshot = {
  hist_bounds : float array;  (** bucket upper bounds, ascending *)
  hist_counts : int array;  (** per bucket; overflow bucket last *)
  hist_count : int;
  hist_sum : float;
  hist_min : float;  (** [infinity] when empty *)
  hist_max : float;  (** [neg_infinity] when empty *)
}

(** Intern a histogram. Default [bounds] are wall-time friendly
    (1us..100s, half-decade steps). [bounds] is only honoured on first
    creation of the name. *)
val histogram : ?bounds:float array -> string -> histogram

(** Record one observation; NaN observations are dropped. *)
val observe : histogram -> float -> unit

(** [time h f] runs [f] and observes its wall time in [h] (even when [f]
    raises). When disabled, just runs [f] — no clock calls. *)
val time : histogram -> (unit -> 'a) -> 'a

val hist_snapshot : histogram -> hist_snapshot

(** {2 Export} *)

type snapshot = {
  snap_counters : (string * int) list;  (** sorted by name *)
  snap_shards : (string * (int * int) list) list;
      (** per counter with >1 populated shard: (shard, count) pairs *)
  snap_gauges : (string * float) list;
  snap_histograms : (string * hist_snapshot) list;  (** non-empty only *)
}

val snapshot : unit -> snapshot

(** The whole registry as one JSON object with [counters], [per_domain],
    [gauges] and [histograms] sections (see DESIGN.md §8 for the schema).
    Floats round-trip bit-exactly through {!Json}. *)
val to_json : unit -> Json.t
