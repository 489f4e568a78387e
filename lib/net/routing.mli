(** Flow representation of routing (Section 2 of the paper).

    A routing assigns, for each commodity [k] (an OD pair for the base
    routing [r], a protected link for the protection routing [p]), the
    fraction [get t k e] of the commodity's traffic crossing each directed
    link [e]. Validity is conditions [R1]–[R4] of equation (1).

    Every row is an {!R3_util.Rowvec.t} over its support: exact zeros of
    either sign are structural (never stored by {!set} or
    {!set_row_dense}), and every kernel visits a row in increasing link
    order. Rows are short — a protection or detour row is about one path
    (8 of pop36's 160 links), an OSPF base row 5, a Garg–Könemann base
    row 43 — so the online reconfiguration kernels ({!fold_failure},
    {!loads}) cost O(nnz) per row, not O(m). Read whole rows with
    {!iter_row} (or a helper built on it), not with a loop of {!get}:
    [get] is a search of the row.

    Rows are copy-on-write: {!copy} and {!fold_failure} share untouched
    rows between states, and {!set} un-shares a row before mutating it,
    so holding many stepped states costs O(changed rows).

    Concurrency: {!fold_failure} (and the read-only consumers) may be
    called on the same routing from any number of domains at once — all
    sharing metadata it updates is atomic, and the column support index
    is published atomically only once fully built. Mutators ({!set},
    {!set_row_dense}, {!set_row_vec}) still require exclusive access to
    the routing. *)

type t

(** All-zero routing for the given commodities. *)
val create : Graph.t -> pairs:(Graph.node * Graph.node) array -> t

val num_commodities : t -> int

(** Number of links [m] the routing was built over. *)
val num_links : t -> int

(** The commodity array. Treat as read-only. *)
val pairs : t -> (Graph.node * Graph.node) array

(** [pair t k] is commodity [k]'s (origin, destination). *)
val pair : t -> int -> Graph.node * Graph.node

(** O(rows) copy-on-write copy: rows are shared until either side
    mutates them through {!set} or {!set_row_dense}. *)
val copy : t -> t

(** {2 Row access}

    All iteration visits stored entries in increasing link order. *)

(** [get t k e] is the fraction of commodity [k] on link [e]; O(log nnz)
    (a search of the row). *)
val get : t -> int -> Graph.link -> float

(** [set t k e x] writes one entry (an exact zero of either sign removes
    it). Un-shares the row first. *)
val set : t -> int -> Graph.link -> float -> unit

(** Apply [f e x] to commodity [k]'s stored entries, ascending [e]. *)
val iter_row : t -> int -> (Graph.link -> float -> unit) -> unit

val fold_row : t -> int -> init:'a -> f:('a -> Graph.link -> float -> 'a) -> 'a

(** Fresh dense copy of row [k]. *)
val row_dense : t -> int -> float array

(** Fresh copy of row [k]. *)
val row_vec : t -> int -> R3_util.Rowvec.t

(** [set_row_dense t k row] replaces row [k] with the nonzero entries of
    [row] ([row] is not retained). *)
val set_row_dense : t -> int -> float array -> unit

(** [set_row_vec t k v] installs [v] as row [k], taking ownership of it
    (the caller must not mutate [v] afterwards) — the inverse of
    {!row_vec}. Entries are installed as given, an explicitly stored
    zero included. Raises [Invalid_argument] on an index outside the
    link space. *)
val set_row_vec : t -> int -> R3_util.Rowvec.t -> unit

(** [to_dense_matrix t] is every row as a fresh dense array — the image
    {!bits_equal} is defined on, and the reference the tests compare
    against. *)
val to_dense_matrix : t -> float array array

(** {2 Bit-level comparison}

    A row shared between routings ({!copy}, {!fold_failure}) holds the
    same bits for every routing that holds it: once handed to a second
    routing a row is never written again, because {!set} and the other
    mutators un-share a row before writing it. (The one way around this
    is to keep and write a vector given to {!set_row_vec}, whose
    ownership passed to the routing.) {!bits_equal} and the incremental
    FIB update ([R3_mplsff.Fib.update_router]) rely on this rule to skip
    shared rows. *)

(** [bits_equal a b] is true iff the dense images of [a] and [b] (as
    {!to_dense_matrix}) have the same shape and the same float bits
    ([Int64.bits_of_float], so a stored [-0.0] differs from an absent
    entry). Row by row: a row both routings share is skipped, the others
    are compared in one merge pass over both supports. Allocates
    nothing; O(rows) plus the stored size of the rows not shared. *)
val bits_equal : t -> t -> bool

(** [shares_row a b k] is true iff [a] and [b] hold row [k] as one
    shared row, which by the rule above implies bit-identical rows (the
    converse does not hold). O(1). Raises [Invalid_argument] when either
    routing has no row [k]. *)
val shares_row : t -> t -> int -> bool

(** Total stored entries across all rows. *)
val nnz : t -> int

(** {2 Failure folding (the R3 online kernels)} *)

(** Pre-build the column support index {!fold_failure} uses to find
    candidate rows (no-op when already built). [Reconfig.make] calls this so parallel workers stepping a
    shared root state find the index ready instead of each building it
    on their first fold. *)
val prepare : t -> unit

(** [1e-9]: a protection row whose self-entry [p_e(e)] is within this of
    1 has no detour; equation (8) would divide by [1 - p_e(e)] ~ 0. *)
val rescale_tol : float

(** [rescale_detour t e] is the detour [xi_e] of equation (8) computed
    from row [e] of the protection routing [t]: entry [e] removed, the
    rest scaled by [1 / (1 - p_e(e))]; all-zero when
    [p_e(e) >= 1 - rescale_tol]. *)
val rescale_detour : t -> Graph.link -> R3_util.Rowvec.t

(** [fold_failure t ~e ~xi ~replace_with_detour] applies equations
    (9)/(10): every row [k] with [on_e = get t k e > 0.0] becomes
    [row + on_e * xi] with entry [e] dropped; rows without an entry at
    [e] (or with a stored [+0.0]) are {b shared} with [t] unchanged;
    negative or [-0.0] solver noise only drops entry [e]. Only the rows
    with an entry at [e] are visited, found through the column support
    index. When [replace_with_detour]
    is true (the protection routing), row [e] itself becomes [xi].
    Returns the new routing plus [(shared, copied)] row counts. [t]'s
    rows are not touched (the only update to [t] is an atomic
    sharing-generation bump protecting the now-shared payloads), so
    concurrent folds from the same [t] are safe and any number of
    children may be derived from one state. *)
val fold_failure :
  t ->
  e:Graph.link ->
  xi:R3_util.Rowvec.t ->
  replace_with_detour:bool ->
  t * (int * int)

(** {2 Aggregate consumers} *)

(** [validate g ?tol ?failed ?partial t] checks [R1]–[R4] for every
    commodity and additionally that no flow crosses a failed link. When
    [partial] is true, commodities are also allowed to route {e none} of
    their traffic (all-zero rows) — the state R3 reaches when a partition
    removes reachability. Returns a human-readable error for the first
    violated condition. *)
val validate :
  Graph.t ->
  ?tol:float ->
  ?failed:Graph.link_set ->
  ?partial:bool ->
  t ->
  (unit, string) result

(** [loads g ~demands t] sums [demands.(k) *. get t k e] per link.
    [demands] must be parallel to the commodity array. *)
val loads : Graph.t -> demands:float array -> t -> float array

(** Maximum link utilization given per-link loads. *)
val mlu : Graph.t -> loads:float array -> float

(** The link attaining the MLU (lowest id on ties). *)
val bottleneck : Graph.t -> loads:float array -> Graph.link

(** Expected end-to-end propagation delay of commodity [k] under the
    routing: [sum_e get t k e * delay e]. *)
val mean_delay : Graph.t -> t -> int -> float

(** Per-commodity delivered fraction at the destination: 1 for a valid
    total routing, less when the commodity is partially dropped. Computed
    as net flow into the destination, in one pass over the row. *)
val delivered : Graph.t -> t -> int -> float
