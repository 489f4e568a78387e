(** Deterministic pseudo-random number generator (SplitMix64).

    All workload generation in this repository goes through this module so
    that every experiment is reproducible bit-for-bit across runs and
    machines, independently of the OCaml stdlib [Random] implementation. *)

type t

(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)
val create : int -> t

(** [copy t] returns an independent generator with the same state. *)
val copy : t -> t

(** [split t] derives a new independent generator and advances [t]. *)
val split : t -> t

(** Next raw 64-bit value (as an OCaml [int], so 63 bits retained). *)
val bits : t -> int

(** [int t n] is uniform in [0, n). Raises [Invalid_argument] if [n <= 0]. *)
val int : t -> int -> int

(** [float t x] is uniform in [0, x). *)
val float : t -> float -> float

(** Uniform in [lo, hi). *)
val uniform : t -> float -> float -> float

(** Standard normal via Box–Muller. *)
val gaussian : t -> float

(** Exponential with the given [mean]. *)
val exponential : t -> mean:float -> float

(** [bool t p] is [true] with probability [p]. *)
val bool : t -> float -> bool

(** In-place Fisher–Yates shuffle. *)
val shuffle : t -> 'a array -> unit

(** [sample t k arr] draws [k] distinct elements uniformly (reservoir).
    Raises [Invalid_argument] if [k > Array.length arr]. *)
val sample : t -> int -> 'a array -> 'a array

(** [choose t arr] draws one element uniformly. *)
val choose : t -> 'a array -> 'a
