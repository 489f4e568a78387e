(** Two-phase primal simplex over standard nonnegative variables.

    This is the numerical core under {!Problem}; it solves

    {v  min c . x   s.t.  A x (<= | = | >=) b,   x >= 0  v}

    Phase 1 drives artificial variables to zero starting from a slack basis;
    phase 2 optimizes the true objective. Devex pricing with a Bland
    fallback after a run of degenerate pivots provides anti-cycling. Rows are
    equilibrated (scaled by their max absolute coefficient) for numerical
    robustness.

    The basis is held as a sparse LU factorization ({!Lu}) instead of a
    pivoted tableau: each iteration is one BTRAN (pivot row), one FTRAN
    (entering column) and an eta-file append, so per-pivot work scales
    with the touched nonzeros, not the total column count. Pricing is
    Devex over a cached candidate list. A numerically singular basis is
    repaired in place: each rank-deficient column is swapped for the
    slack or artificial of a row the LU left unpivoted, the displaced
    column turns nonbasic at 0, and the solve resumes from a restored
    phase-1 start. Each swap counts on the [lp.rev.fallbacks] metric.

    {!reference_solve} is a textbook dense two-phase tableau under
    Bland's rule, kept only as the independent oracle tests compare this
    engine against. It shares the equilibration and nothing else: no
    Devex, no Harris window, no degenerate-run switch, no metric. *)

type cmp = Le | Ge | Eq

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit

type outcome = {
  status : status;
  x : float array;  (** primal values (length = num variables); zeros unless [Optimal] *)
  objective : float;  (** c . x at termination *)
  pivots : int;  (** total pivot count across both phases *)
}

(** [solve ~obj ~rows ~cmps ~rhs] where [rows.(i)] is constraint [i]'s
    {!R3_util.Rowvec.t} (sorted, unique, nonzero entries) over variable
    indices in [0, Array.length obj). Rows are read, never mutated.
    [max_pivots] caps total pivots.

    [start] is a start basis: each [(i, j)] makes column [j] basic in
    row [i] in place of that row's slack or artificial (each row and
    column at most once, else [Invalid_argument]). Every inequality row
    the start does not list begins on its own slack or surplus (after a
    negative right-hand side flips it), so only an unlisted equality row
    keeps its artificial; that adds unit columns, so a triangular start
    stays triangular. The solve then takes the basis-repair path:
    rank-deficient positions go back to their row's slack or artificial,
    negative basic values (a negative surplus among them) are lifted by
    one composite artificial, and phase 1 runs only when an artificial
    is above 0. A triangular, primal-feasible start therefore goes
    straight to phase 2. Without [start] the solve begins at the slack
    and artificial basis: every [>=] and [=] row on its artificial. *)
val solve :
  ?max_pivots:int ->
  ?start:(int * int) list ->
  obj:float array ->
  rows:R3_util.Rowvec.t array ->
  cmps:cmp array ->
  rhs:float array ->
  unit ->
  outcome

(** Same contract as {!solve} without [start], on a textbook dense
    two-phase tableau: the equilibrated rows, a slack and artificial
    start, and Bland's rule in both phases (the lowest-index column with
    reduced cost below [-eps] enters; among the rows at the exact
    minimum ratio, the one whose basic column has the lowest index
    leaves), so it cannot cycle. Phase 1 minimizes the sum of the
    artificials; an artificial still basic at 0 after it leaves on the
    first real column of its row, or the row is dropped as redundant.
    For tests only: it is the oracle the revised engine is checked
    against, O(rows x columns) per pivot, it writes no metric, and no
    production code path calls it. *)
val reference_solve :
  ?max_pivots:int ->
  obj:float array ->
  rows:R3_util.Rowvec.t array ->
  cmps:cmp array ->
  rhs:float array ->
  unit ->
  outcome

(** Warm-startable solver handle.

    {!Session.create} runs the full two-phase solve once; {!Session.add_row}
    then appends constraints, and {!Session.resolve} restores primal
    feasibility with dual-simplex pivots instead of a cold two-phase
    solve - the classic cutting-plane work-loop. An appended row keeps
    its original coefficients and gets its own basic slack; the
    carried-over LU factorization is refreshed at the next {!resolve}.
    Pivot counts accumulate across the session, so [pivots (resolve s)]
    is the total effort since [create]. *)
module Session : sig
  type t

  (** Build the solver state and run the initial two-phase solve; the
      result is available via {!outcome}. [max_pivots] is the pivot
      budget for the initial solve and for each subsequent {!resolve}. *)
  val create :
    ?max_pivots:int ->
    obj:float array ->
    rows:R3_util.Rowvec.t array ->
    cmps:cmp array ->
    rhs:float array ->
    unit ->
    t

  (** Result of the last (re-)solve. *)
  val outcome : t -> outcome

  (** [add_row s row cmp rhs] appends a constraint over existing
      variables. [Eq] rows are added as a [Le]/[Ge] pair. Takes effect at
      the next {!resolve}. *)
  val add_row : t -> R3_util.Rowvec.t -> cmp -> float -> unit

  (** Re-solve after {!add_row}s, reusing the current basis. Returns
      [Iteration_limit] when the warm state is unusable (initial solve was
      not optimal, or the dual repair exhausted its budget); callers should
      then fall back to a cold solve. *)
  val resolve : t -> outcome

  (** Cumulative pivots since [create]. *)
  val pivots : t -> int

  (** Whether the session can warm-restart (last solve ended [Optimal]). *)
  val warm_ok : t -> bool

  (** Basis refactorizations so far. *)
  val refactorizations : t -> int
end
