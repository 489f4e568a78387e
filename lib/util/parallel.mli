(** Deterministic parallel maps over the persistent pool ({!Pool}).

    Every result lands in the slot of its input, so the output (and any
    sequential merge the caller does) is identical to a sequential run
    for any pool size. Task functions must not touch shared mutable
    state. The pool size is process-wide: pin it with {!set_domains}
    (e.g. [set_domains 1] to force sequential execution when comparing
    against a parallel run). *)

(** Current pool size ({!Pool.domains}). *)
val domains : unit -> int

(** Resize the pool ({!Pool.set_domains}); clamped to [\[1, 64\]]. *)
val set_domains : int -> unit

(** Parse a pool size: an integer in [1..64] is [Some d], [auto] is
    [None] (keep the machine-derived size). Anything else is an [Error]
    naming the range — a count outside it is rejected, not clamped. *)
val domains_of_string : string -> (int option, string) result

(** [map f a] is [Array.map f a], computed by the pool. Exceptions raised
    by [f] are re-raised in the caller with their original (worker-side)
    backtrace; the one from the lowest index wins. *)
val map : ('a -> 'b) -> 'a array -> 'b array

(** [init n f] is [Array.init n f], computed by the pool. *)
val init : int -> (int -> 'a) -> 'a array
