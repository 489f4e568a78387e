(** Sparse LU basis factorization with a product-form eta file — the
    numerical engine of the revised simplex in {!Simplex}.

    {!refactor} factors the current basis with a left-looking column LU:
    columns in ascending-nonzero order, threshold partial pivoting
    ({!Tol.lu_threshold}) with a static-row-count Markowitz bias inside
    the admissible window. Each simplex basis change then appends one
    sparse eta column via {!update}; {!ftran_pat}/{!btran_pat} run the
    two triangular solves plus the eta file on a caller-owned dense
    workspace, driven by the right-hand side's nonzero pattern: only the
    elimination steps reachable from it are visited, in elimination
    order, with transposed factor adjacency for the BTRAN direction, and
    the result's pattern is returned so downstream consumers never
    rescan the whole vector. The reachable steps queue in a bitset with
    a summary level; it pops the smallest pending step, as a binary heap
    would, and since every sweep only pushes steps beyond the one it
    popped, its cursor only moves forward. A solve costs O(touched
    nonzeros) plus one word scan per 1,024 steps it passes, independent
    of how many columns the LP has. Right-hand sides denser than one
    nonzero per 8 rows take plain dense sweeps instead. That cutoff
    fixes the result's bits as well as the cost, since the dense BTRAN
    sums its L{^T} pass in another order. {!ftran}/{!btran} are the
    dense entry points (one O(m) scan to recover the pattern).

    The eta file should be folded back into a fresh factorization every
    {!Tol.refactor_every} updates ({!needs_refactor}) or when a pivot
    looks unstable — policy is the caller's; this module only reports. *)

type t

val create : unit -> t

(** [refactor t ~m ~cols ~basis] factors the [m]-dimensional basis whose
    position-[k] column is the sparse column [cols.(basis.(k))] (row
    indices in [0, m)), and clears the eta file. The columns are read in
    place: nothing is copied or allocated per column, and [cols] and
    [basis] are not retained.

    A position whose column keeps no pivot above {!Tol.lu_singular} after
    elimination is rank deficient. The result lists each such position
    with a row that no column pivoted on, as [(position, row)] pairs
    (positions and rows both ascending); it is empty exactly when the
    basis is numerically nonsingular. The factors then describe the
    basis with each listed position holding the unit column of its row,
    so the caller repairs its basis by swapping in a column equal to
    that unit column (a slack or artificial) - no second factorization
    is needed. *)
val refactor :
  t -> m:int -> cols:R3_util.Rowvec.t array -> basis:int array -> (int * int) list

(** [ftran_pat t x pat n] solves [B x = b] in place: on entry [x] holds
    [b] indexed by row with its [n] nonzero rows listed in [pat], on
    exit the solution indexed by basis position with its positions
    written back into [pat]. [pat] must have room for [m] entries (the
    dimension of the last {!refactor}).
    Returns the result's count. *)
val ftran_pat : t -> float array -> int array -> int -> int

(** [btran_pat t x pat n] solves [B^T y = c] in place: on entry indexed
    by basis position (pattern = positions), on exit by row (pattern =
    rows). Same contract as {!ftran_pat}. *)
val btran_pat : t -> float array -> int array -> int -> int

(** Dense entry points: scan the vector for its pattern, then solve as
    {!ftran_pat}/{!btran_pat}. Return the result's nonzero count. *)
val ftran : t -> float array -> int

val btran : t -> float array -> int

(** [update_pat t ~r ~w ~pat ~n] records the basis change that replaced
    position [r] by the column whose FTRAN result is [w] (dense,
    basis-position space, nonzeros listed in [pat]). The caller must
    refactor instead when [|w.(r)|] is at or below {!Tol.lu_singular};
    such a pivot raises [Invalid_argument]. *)
val update_pat : t -> r:int -> w:float array -> pat:int array -> n:int -> unit

(** As {!update_pat}, recovering the pattern with an O(m) scan. *)
val update : t -> r:int -> w:float array -> unit

(** Eta columns since the last {!refactor}. *)
val eta_count : t -> int

(** Stored eta entries since the last {!refactor}. *)
val eta_entries : t -> int

(** Whether the eta file has reached {!Tol.refactor_every}. *)
val needs_refactor : t -> bool
