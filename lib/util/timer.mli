(** Wall-clock timing helpers for the benchmark harness. All elapsed
    deltas are clamped to [>= 0]: [Unix.gettimeofday] is not monotonic and
    an NTP step mid-measurement must not produce negative durations. *)

(** [time f] runs [f ()] and returns its result with the elapsed seconds. *)
val time : (unit -> 'a) -> 'a * float

(** [best_of ~repeats f] runs [f ()] [repeats] times (default 3) and
    returns the fastest elapsed seconds — the standard low-noise
    measurement for short benchmark sections. Raises [Invalid_argument]
    if [repeats < 1]. *)
val best_of : ?repeats:int -> (unit -> unit) -> float
