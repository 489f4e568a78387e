module R = R3_util.Rowvec

type var = int

type cmp = Simplex.cmp = Le | Ge | Eq

(* Rows, comparators and right-hand sides in creation order: row i is
   the solver's row i. The first [nrows] slots of each array are live. *)
type t = {
  mutable nvars : int;
  mutable rows : R.t array;
  mutable cmps : cmp array;
  mutable rhs : float array;
  mutable nrows : int;
  mutable sense_minimize : bool;
  mutable obj_terms : (float * var) list;
}

type solution = { objective : float; value : var -> float; pivots : int }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iteration_limit

let create () =
  { nvars = 0; rows = [||]; cmps = [||]; rhs = [||]; nrows = 0;
    sense_minimize = true; obj_terms = [] }

let var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  v

let check_term t c v =
  if v < 0 || v >= t.nvars then invalid_arg "Problem: variable out of range";
  if not (Float.is_finite c) then invalid_arg "Problem: non-finite coefficient"

(* [a] with [x] stored at [n], grown first when [n] is its length. *)
let push a n x =
  let a = if n < Array.length a then a else Array.append a (Array.make (Int.max 16 n) x) in
  a.(n) <- x;
  a

(* The row is compacted here, once: [Rowvec.of_pairs] sums duplicate
   variables in term order and drops entries that sum to zero. *)
let constr_array t vars coefs cmp rhs =
  if not (Float.is_finite rhs) then invalid_arg "Problem: non-finite right-hand side";
  let row = R.of_pairs vars coefs in
  Array.iteri (fun s v -> check_term t coefs.(s) v) vars;
  let i = t.nrows in
  t.rows <- push t.rows i row;
  t.cmps <- push t.cmps i cmp;
  t.rhs <- push t.rhs i rhs;
  t.nrows <- i + 1

let constr t terms cmp rhs =
  let terms = Array.of_list terms in
  constr_array t (Array.map snd terms) (Array.map fst terms) cmp rhs

let minimize t terms =
  List.iter (fun (c, v) -> check_term t c v) terms;
  t.sense_minimize <- true;
  t.obj_terms <- terms

let maximize t terms =
  List.iter (fun (c, v) -> check_term t c v) terms;
  t.sense_minimize <- false;
  t.obj_terms <- terms

let add_objective_term t coef v =
  check_term t coef v;
  t.obj_terms <- (coef, v) :: t.obj_terms

let num_vars t = t.nvars
let num_constraints t = t.nrows

let sense t = if t.sense_minimize then 1.0 else -1.0

(* The objective in the solver's terms: each variable's terms summed in
   list order from +0.0 (DESIGN §6 says why the order is part of the
   bits), then times the sense. A variable whose terms sum to zero,
   or that has none, keeps +0.0, also in a maximization. *)
let objective t =
  let sense = sense t in
  let obj = Array.make t.nvars 0.0 in
  List.iter (fun (c, v) -> obj.(v) <- obj.(v) +. c) t.obj_terms;
  Array.map (fun c -> if c <> 0.0 then c *. sense else 0.0) obj

(* A variable outside the solved problem fails [x]'s bounds check. *)
let wrap sense (out : Simplex.outcome) =
  match out.Simplex.status with
  | Simplex.Infeasible -> Infeasible
  | Simplex.Unbounded -> Unbounded
  | Simplex.Iteration_limit -> Iteration_limit
  | Simplex.Optimal ->
    Optimal
      {
        objective = sense *. out.Simplex.objective;
        value = Array.get out.Simplex.x;
        pivots = out.Simplex.pivots;
      }

(* [f] applied to the problem in the solver's terms: the objective and
   the live prefix of the rows. *)
let live t f =
  let m = t.nrows in
  f ~obj:(objective t) ~rows:(Array.sub t.rows 0 m) ~cmps:(Array.sub t.cmps 0 m)
    ~rhs:(Array.sub t.rhs 0 m) ()

(* The start's rows and variables are the solver's, so [Simplex.solve]
   range-checks them. *)
let solve ?max_pivots ?start t = wrap (sense t) (live t (Simplex.solve ?max_pivots ?start))

(* ---- incremental solve handle ---- *)

module Obs = struct
  module M = R3_util.Metrics

  let cold_starts = M.counter "lp.session.cold_starts"
  let warm_resolves = M.counter "lp.session.warm_resolves"
  let rows_added = M.counter "lp.session.rows_added"
end

type session = {
  sp : t;
  smax_pivots : int option;
  mutable core : (Simplex.Session.t * float) option;  (* and the sense *)
  mutable seen_rows : int;  (* rows of [sp] already in [core] *)
  mutable seen_vars : int;
  mutable retired_pivots : int;  (* pivots spent in discarded cores *)
}

let session ?max_pivots t =
  { sp = t; smax_pivots = max_pivots; core = None; seen_rows = 0;
    seen_vars = 0; retired_pivots = 0 }

let session_pivots s =
  s.retired_pivots
  + (match s.core with Some (c, _) -> Simplex.Session.pivots c | None -> 0)

let retire s =
  (match s.core with
  | Some (c, _) -> s.retired_pivots <- s.retired_pivots + Simplex.Session.pivots c
  | None -> ());
  s.core <- None

(* Full cold (re)build of the whole problem, run two-phase. *)
let cold_start s =
  let t = s.sp and sense = sense s.sp in
  R3_util.Metrics.incr Obs.cold_starts;
  let core = live t (Simplex.Session.create ?max_pivots:s.smax_pivots) in
  s.core <- Some (core, sense);
  s.seen_rows <- t.nrows;
  s.seen_vars <- t.nvars;
  wrap sense (Simplex.Session.outcome core)

let resolve s =
  let t = s.sp in
  match s.core with
  | None -> cold_start s
  | Some _ when t.nvars <> s.seen_vars ->
    invalid_arg "Problem.resolve: variables added after the session's first solve"
  | Some (core, sense) ->
    let fresh = t.nrows - s.seen_rows in
    if fresh = 0 then wrap sense (Simplex.Session.outcome core)
    else begin
      for i = s.seen_rows to t.nrows - 1 do
        Simplex.Session.add_row core t.rows.(i) t.cmps.(i) t.rhs.(i)
      done;
      s.seen_rows <- t.nrows;
      R3_util.Metrics.incr Obs.warm_resolves;
      R3_util.Metrics.add Obs.rows_added fresh;
      let out = Simplex.Session.resolve core in
      match out.Simplex.status with
      | Simplex.Iteration_limit when not (Simplex.Session.warm_ok core) ->
        (* Warm state unusable (numerical trouble or budget blown during
           the dual repair): fall back to one cold solve. *)
        retire s;
        cold_start s
      | _ -> wrap sense out
    end
