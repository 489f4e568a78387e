(** Lightweight span tracing with a bounded ring-buffer collector.

    [with_span "lp.solve" ~attrs f] times [f] and records a completed span
    on exit (even when [f] raises). Spans nest lexically per domain — each
    span knows its depth and parent — and land in one global ring that
    keeps the most recent {!set_capacity} spans; {!summary} counts every
    span, the overwritten ones too. Export as a JSON document
    ({!to_json}) or newline-delimited JSON ({!export_ndjson}); both print
    floats with bit-exact round-trip (see {!Json}).

    Recording granularity is per-solve / per-round, never per-pivot: the
    collector takes a mutex per completed span, which is invisible next to
    the work a span wraps. *)

type attr =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type span = {
  name : string;
  attrs : (string * attr) list;
  start : float;  (** [Unix.gettimeofday] at entry *)
  duration : float;  (** seconds *)
  domain : int;  (** id of the domain that ran the span *)
  depth : int;  (** 0 = top-level within its domain *)
  parent : string option;  (** lexically enclosing span, if any *)
  seq : int;  (** global completion order *)
}

val set_enabled : bool -> unit
val enabled : unit -> bool

(** Replace the ring (default capacity 8192 spans) and clear it and the
    {!summary} totals. *)
val set_capacity : int -> unit

(** Clear the ring and the {!summary} totals. *)
val reset : unit -> unit

(** Run [f] inside a named span. When tracing is disabled this is [f ()]
    with no clock reads. *)
val with_span : ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a

(** Attach an attribute to the innermost open span of the calling domain;
    no-op when no span is open (or tracing is off). *)
val add_attr : string -> attr -> unit

(** Retained spans, oldest first. *)
val spans : unit -> span list

(** Total spans ever recorded / overwritten by ring wrap-around. *)
val recorded : unit -> int

val dropped : unit -> int

(** [(name, count, total_seconds)] per span name over every span since
    the last {!reset} or {!set_capacity}, {!dropped} ones included;
    heaviest first. *)
val summary : unit -> (string * int * float) list

(** [{recorded; dropped; spans}] as one JSON document. *)
val to_json : unit -> Json.t

(** One span object per line (ndjson). *)
val export_ndjson : string -> unit
