(** Linear-program builder.

    Models of the form

    {v  min/max  c . x
        s.t.     sum_j a_ij x_j  (<= | = | >=)  b_i     for each row i
                 lb_j <= x_j <= ub_j                     for each var j  v}

    Variables default to [lb = 0], [ub = +inf]. The builder is mutable and
    append-only; [solve] snapshots it. Duplicate variables inside one term
    list are summed, so callers may emit terms incrementally. *)

type t

(** Opaque variable handle, valid only for the problem that created it. *)
type var

type cmp = Le | Ge | Eq

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

(** [var t] adds a variable. Default bounds [0, +inf).
    Raises [Invalid_argument] if [lb > ub]. *)
val var : ?lb:float -> ?ub:float -> t -> var

(** A variable unbounded in both directions. *)
val free_var : t -> var

(** [constr t terms cmp rhs] adds the row [sum terms cmp rhs]. *)
val constr : t -> (float * var) list -> cmp -> float -> unit

(** Set the objective (replacing any previous one). *)
val minimize : t -> (float * var) list -> unit

val maximize : t -> (float * var) list -> unit

(** [add_objective_term t coef v] adds [coef * v] to the current objective
    without changing its sense. *)
val add_objective_term : t -> float -> var -> unit

val num_vars : t -> int
val num_constraints : t -> int

(** Solve with the built-in two-phase revised simplex ({!Simplex}).
    [max_pivots] defaults to a budget proportional to the problem size. *)
val solve : ?max_pivots:int -> t -> result

(** {2 Incremental solving}

    A session translates the problem once, solves it, and keeps the final
    simplex basis alive. Rows appended to the problem with {!constr} after
    a solve are picked up by the next {!resolve} and repaired with
    dual-simplex pivots instead of a from-scratch two-phase solve - the
    work-loop of cutting-plane methods like {!R3_core.Offline}'s
    constraint generation. Adding {e variables} after the first solve
    forces a transparent cold rebuild (still correct, just not warm). *)

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
