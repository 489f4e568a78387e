(** Sparse-row numeric kernels.

    One sorted-index sparse row (CSR-style: parallel [idx]/[v] arrays with
    an explicit length), used by the routing storage substrate
    ([R3_net.Routing]) and as the column and row store of the revised
    simplex ([R3_lp.Simplex]).

    Only exact (signed) zeros are structural: an entry is {e kept} iff
    [Float.abs x > 0.0], so a row's dense image never holds [-0.0]. All
    iteration is in strictly increasing index order, which is what makes
    sparse arithmetic reproduce dense left-to-right loops bit for bit
    (the routing tests check this against a naive dense reference). *)

type t

(** [create ?cap ()] is an empty row with initial capacity [cap]. *)
val create : ?cap:int -> unit -> t

(** [of_pairs idx v] builds a row from parallel index/value arrays.
    Indices need not be sorted or unique: duplicates are summed in input
    order (a stable sort), entries summing to zero removed, and so is a
    NaN ([Float.abs nan > 0.0] is false). The input arrays are not
    retained. *)
val of_pairs : int array -> float array -> t

(** [of_dense a] keeps every nonzero entry of [a], dropping exact zeros
    of either sign. *)
val of_dense : float array -> t

(** [of_sorted idx v n] wraps the first [n] entries of the given parallel
    arrays as a row, {b taking ownership} of both arrays (they must not be
    mutated afterwards). The caller guarantees indices are strictly
    increasing and values already satisfy its drop policy — nothing is
    checked. Single-allocation constructor for merge kernels that build a
    row in one pass. *)
val of_sorted : int array -> float array -> int -> t

(** [to_dense width r] scatters into a fresh zero-filled array. *)
val to_dense : int -> t -> float array

val copy : t -> t

(** Number of stored entries. *)
val nnz : t -> int

(** [get r j] is the coefficient at index [j] (0 if absent); O(log nnz). *)
val get : t -> int -> float

(** [set r j x] writes coefficient [x] at index [j], inserting or
    removing (on [x = 0.0]) the entry as needed. O(nnz) worst case on
    insert; O(1) amortized when indices arrive in increasing order. *)
val set : t -> int -> float -> unit

(** Remove the entry at index [j] (exact structural zero). *)
val clear : t -> int -> unit

(** [scale r k] multiplies every entry by [k], dropping entries that
    become zero. *)
val scale : t -> float -> unit

(** [merged ~skip ~y ~x factor] is a fresh row [y + factor * x] with any
    entry at index [skip] removed; [y] and [x] are unchanged
    (copy-on-write). Entries are produced in ascending index order: a
    [y]-only entry is copied verbatim, an [x]-only entry contributes
    [factor *. x_j], a collision contributes [y_j +. (factor *. x_j)];
    zero results are dropped. This reproduces a dense in-place
    [y_j +. factor *. x_j] loop bit for bit (provided [x] stores no
    [-0.0]). Single allocation, exactly sized. *)
val merged : skip:int -> y:t -> x:t -> float -> t

(** [bits_equal a b] is true iff [a] and [b] have the same dense image
    bit for bit ([Int64.bits_of_float]): an index stored on one side only
    must hold [+0.0] there, so a stored [-0.0] differs from an absent
    entry. One merge pass over both supports; allocates nothing. *)
val bits_equal : t -> t -> bool

(** [scatter_add ?scale r ~into] adds [scale *. x] (default [scale = 1.0])
    into [into.(j)] for every stored entry, in increasing index order. *)
val scatter_add : ?scale:float -> t -> into:float array -> unit

(** [iter f r] applies [f j v] to each entry in increasing index order. *)
val iter : (int -> float -> unit) -> t -> unit

(** [dot r dense] is [sum_j r_j * dense.(j)]; O(nnz). *)
val dot : t -> float array -> float

(** [indices r] and [values r] expose the parallel arrays whose first
    [nnz r] entries are the stored entries. Read-only views for
    allocation-free hot loops (no tuple per row); invalidated by any
    mutating operation. *)
val indices : t -> int array

val values : t -> float array
