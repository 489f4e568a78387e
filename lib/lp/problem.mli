(** Linear-program builder.

    Models of the form

    {v  min/max  c . x
        s.t.     sum_j a_ij x_j  (<= | = | >=)  b_i     for each row i
                 x_j >= 0                                for each var j  v}

    This is {!Simplex}'s own standard form: variable [j] is the solver's
    column [j] and row [i] its row [i], so a bound is a row like any
    other. The builder is mutable and append-only. {!constr} compacts
    each row once into the solver's {!R3_util.Rowvec.t}: duplicate
    variables are summed in term order, so callers may emit terms
    incrementally, and zero sums are dropped. Solves and sessions read
    the rows and never mutate them. {!constr} and the objective's
    setters raise [Invalid_argument] on another problem's variable or a
    non-finite coefficient, and {!constr} on a non-finite rhs. *)

type t

(** Opaque variable handle, valid only for the problem that created it. *)
type var

type cmp = Simplex.cmp = Le | Ge | Eq

type solution = {
  objective : float;  (** optimal objective value, in the user's sense *)
  value : var -> float;  (** value of each variable at the optimum *)
  pivots : int;  (** simplex pivots spent producing this solution *)
}

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iteration_limit  (** solver hit its pivot budget before proving a status *)

val create : unit -> t

(** [var t] adds a nonnegative variable. *)
val var : t -> var

(** [constr t terms cmp rhs] adds the row [sum terms cmp rhs]. *)
val constr : t -> (float * var) list -> cmp -> float -> unit

(** Set the objective (replacing any previous one). Each solve sums a
    variable's terms in list order. *)
val minimize : t -> (float * var) list -> unit

val maximize : t -> (float * var) list -> unit

(** [add_objective_term t coef v] adds [coef * v] to the current objective
    without changing its sense, at the front of the term list. *)
val add_objective_term : t -> float -> var -> unit

val num_vars : t -> int
val num_constraints : t -> int

(** Solve with the built-in two-phase revised simplex ({!Simplex}).
    [max_pivots] defaults to a budget proportional to the problem size.
    [start] is a start basis of [(row, var)] pairs, where [row] is the
    row's index in creation order ({!num_constraints} just before its
    {!constr}). Every inequality row it does not list starts on its own
    slack or surplus, and only an unlisted equality row on its
    artificial. See {!Simplex.solve} for how the basis is repaired and
    completed; a row or a variable outside the problem raises
    [Invalid_argument]. *)
val solve : ?max_pivots:int -> ?start:(int * var) list -> t -> result

(** {2 Incremental solving}

    A session hands the rows to the solver once, solves it, and keeps
    the final simplex basis alive. Rows appended to the problem with
    {!constr} after a solve are picked up by the next {!resolve} and
    repaired with dual-simplex pivots instead of a from-scratch
    two-phase solve - the work-loop of cutting-plane methods like
    {!R3_core.Offline}'s constraint generation. A variable added after
    the first solve makes the next {!resolve} raise [Invalid_argument]. *)

(** Incremental solve handle over a problem. All row additions must go
    through the underlying problem's {!constr}; the session notices them
    by row count. *)
type session

(** [session t] prepares an incremental handle; nothing is solved until
    the first {!resolve}. [max_pivots] bounds each individual
    (re-)solve. *)
val session : ?max_pivots:int -> t -> session

(** Solve, or re-solve warm after rows were added. Falls back to a cold
    solve automatically when the warm basis is unusable. *)
val resolve : session -> result

(** Total simplex pivots spent by this session so far (initial solve plus
    all warm repairs and cold fallbacks). *)
val session_pivots : session -> int
