(** Process-wide, domain-safe metrics: counters and gauges.

    Built for the R3 hot paths (simplex pivots, constraint-generation
    rounds, MCF phases, sweep cache traffic): every counter is sharded
    into one cell per domain slot and a writer touches only the cell
    indexed by its own domain id, so parallel sweep workers never
    contend. Readers ({!snapshot}, {!to_json}) merge the shards on
    demand. Wall time is not a metric: {!Trace} spans record it.

    Instruments are interned by name — [counter "lp.pivots"] returns the
    same counter everywhere — so producers resolve handles at module
    initialization and consumers (CLI [--metrics], [r3 profile], the bench
    harness) export the whole registry without coordination.

    Recording is on by default and costs one atomic load plus one sharded
    atomic add per event; {!set_enabled}[ false] reduces every instrument
    to the atomic load alone (the bench harness measures exactly this
    delta). *)

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

(** Raw per-shard values (index = domain id mod the shard count) — the
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

(** {2 Export} *)

type snapshot = {
  snap_counters : (string * int) list;  (** sorted by name *)
  snap_shards : (string * (int * int) list) list;
      (** per counter with >1 populated shard: (shard, count) pairs *)
  snap_gauges : (string * float) list;
}

val snapshot : unit -> snapshot

(** The whole registry as one JSON object with [counters], [per_domain]
    and [gauges] sections (see DESIGN.md §8 for the schema). Floats
    round-trip bit-exactly through {!Json}. *)
val to_json : unit -> Json.t
