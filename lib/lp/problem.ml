type var = int

type cmp = Le | Ge | Eq

type row = { terms : (float * var) list; cmp : cmp; rhs : float }

type t = {
  mutable nvars : int;
  mutable rows : row list;  (* reversed *)
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
  { nvars = 0; rows = []; nrows = 0; sense_minimize = true; obj_terms = [] }

let var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  v

let constr t terms cmp rhs =
  t.rows <- { terms; cmp; rhs } :: t.rows;
  t.nrows <- t.nrows + 1

let minimize t terms =
  t.sense_minimize <- true;
  t.obj_terms <- terms

let maximize t terms =
  t.sense_minimize <- false;
  t.obj_terms <- terms

let add_objective_term t coef v = t.obj_terms <- (coef, v) :: t.obj_terms

let num_vars t = t.nvars
let num_constraints t = t.nrows

(* Combine duplicate variables in a term list into a sparse (idx, coef)
   pair of arrays, dropping exact zeros. *)
let compact_terms nvars terms =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (c, v) ->
      if v < 0 || v >= nvars then invalid_arg "Problem: variable out of range";
      let prev = Option.value (Hashtbl.find_opt acc v) ~default:0.0 in
      Hashtbl.replace acc v (prev +. c))
    terms;
  let pairs =
    Hashtbl.fold (fun v c l -> if c <> 0.0 then (v, c) :: l else l) acc []
  in
  let pairs = List.sort (fun (a, _) (b, _) -> Int.compare a b) pairs in
  (Array.of_list (List.map fst pairs), Array.of_list (List.map snd pairs))

let simplex_cmp = function Le -> Simplex.Le | Ge -> Simplex.Ge | Eq -> Simplex.Eq

(* The problem in the solver's terms: variable v is column v, and row i
   is the i-th row created. Shared by [solve] and [session]. *)
type translated = {
  obj : float array;
  sense : float;
  lp_rows : (int array * float array) array;
  cmps : Simplex.cmp array;
  rhs : float array;
}

let translate t =
  let n = t.nvars in
  let sense = if t.sense_minimize then 1.0 else -1.0 in
  let obj = Array.make n 0.0 in
  let idx, coef = compact_terms n t.obj_terms in
  Array.iteri (fun k v -> obj.(v) <- coef.(k) *. sense) idx;
  let rows = Array.of_list (List.rev t.rows) in
  {
    obj;
    sense;
    lp_rows = Array.map (fun r -> compact_terms n r.terms) rows;
    cmps = Array.map (fun r -> simplex_cmp r.cmp) rows;
    rhs = Array.map (fun (r : row) -> r.rhs) rows;
  }

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

(* The start's rows and variables are the solver's, so [Simplex.solve]
   range-checks them. *)
let solve ?max_pivots ?start t =
  let tr = translate t in
  wrap tr.sense
    (Simplex.solve ?max_pivots ?start ~obj:tr.obj ~rows:tr.lp_rows ~cmps:tr.cmps
       ~rhs:tr.rhs ())

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

(* Full cold (re)build: translate the whole problem and run two-phase. *)
let cold_start s =
  let t = s.sp in
  R3_util.Metrics.incr Obs.cold_starts;
  let tr = translate t in
  let core =
    Simplex.Session.create ?max_pivots:s.smax_pivots
      ~obj:tr.obj ~rows:tr.lp_rows ~cmps:tr.cmps ~rhs:tr.rhs ()
  in
  s.core <- Some (core, tr.sense);
  s.seen_rows <- t.nrows;
  s.seen_vars <- t.nvars;
  wrap tr.sense (Simplex.Session.outcome core)

let resolve s =
  let t = s.sp in
  match s.core with
  | None -> cold_start s
  | Some _ when t.nvars <> s.seen_vars ->
    (* New variables (or a changed objective shape) need a fresh build. *)
    retire s;
    cold_start s
  | Some (core, sense) ->
    let fresh = t.nrows - s.seen_rows in
    if fresh = 0 then wrap sense (Simplex.Session.outcome core)
    else begin
      (* [t.rows] is reversed: the first [fresh] entries are the new rows. *)
      let rec take k acc = function
        | r :: rest when k > 0 -> take (k - 1) (r :: acc) rest
        | _ -> acc
      in
      let new_rows = take fresh [] t.rows in
      List.iter
        (fun r ->
          Simplex.Session.add_row core (compact_terms t.nvars r.terms)
            (simplex_cmp r.cmp) r.rhs)
        new_rows;
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
