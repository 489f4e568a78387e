type var = int

type cmp = Le | Ge | Eq

type var_info = { lb : float; ub : float }

type row = { terms : (float * var) list; cmp : cmp; rhs : float }

type t = {
  mutable vars : var_info list;  (* reversed *)
  mutable nvars : int;
  mutable vars_cache : var_info array option;  (* memoized [vars_array] *)
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
  {
    vars = [];
    nvars = 0;
    vars_cache = None;
    rows = [];
    nrows = 0;
    sense_minimize = true;
    obj_terms = [];
  }

let var ?(lb = 0.0) ?(ub = infinity) t =
  if lb > ub then invalid_arg "Problem.var: lb > ub";
  let v = t.nvars in
  t.vars <- { lb; ub } :: t.vars;
  t.nvars <- t.nvars + 1;
  t.vars_cache <- None;
  v

let free_var t = var ~lb:neg_infinity t

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

let vars_array t =
  match t.vars_cache with
  | Some arr -> arr
  | None ->
    let arr = Array.make t.nvars { lb = 0.0; ub = 0.0 } in
    List.iteri (fun i vi -> arr.(t.nvars - 1 - i) <- vi) t.vars;
    t.vars_cache <- Some arr;
    arr

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

(* Mapping of a user variable onto solver columns:
   - Shifted: one nonnegative column, x = lb + col
   - Split:   two nonnegative columns, x = col_pos - col_neg (free var) *)
type col_map = Shifted of int * float | Split of int * int

(* Snapshot of the user problem translated onto solver columns: variable
   mapping, objective over columns, and all rows (user rows in order,
   then upper-bound rows). Shared by [solve] and [session]. *)
type translated = {
  mapping : col_map array;
  n_user : int;
  obj : float array;
  obj_const : float;
  sense : float;
  rows : (int array * float array) array;
  cmps : Simplex.cmp array;
  rhs : float array;
}

(* One constraint row through the column mapping. *)
let translate_row mapping n_user { terms; cmp; rhs } =
  let idx, coef = compact_terms n_user terms in
  let cols = ref [] and vals = ref [] in
  let rhs_shift = ref 0.0 in
  Array.iteri
    (fun k v ->
      let c = coef.(k) in
      match mapping.(v) with
      | Shifted (col, lb) ->
        cols := col :: !cols;
        vals := c :: !vals;
        rhs_shift := !rhs_shift +. (c *. lb)
      | Split (p, m) ->
        cols := m :: p :: !cols;
        vals := -.c :: c :: !vals)
    idx;
  let cmp =
    match cmp with Le -> Simplex.Le | Ge -> Simplex.Ge | Eq -> Simplex.Eq
  in
  ( Array.of_list (List.rev !cols),
    Array.of_list (List.rev !vals),
    cmp,
    rhs -. !rhs_shift )

let translate t =
  let infos = vars_array t in
  let n_user = t.nvars in
  let mapping = Array.make n_user (Shifted (0, 0.0)) in
  let next_col = ref 0 in
  let extra_rows = ref [] in
  for v = 0 to n_user - 1 do
    let { lb; ub } = infos.(v) in
    if lb = neg_infinity then begin
      let p = !next_col in
      let m = !next_col + 1 in
      next_col := !next_col + 2;
      mapping.(v) <- Split (p, m);
      if ub < infinity then
        extra_rows := ([| p; m |], [| 1.0; -1.0 |], Simplex.Le, ub) :: !extra_rows
    end
    else begin
      let c = !next_col in
      incr next_col;
      mapping.(v) <- Shifted (c, lb);
      if ub < infinity then
        extra_rows := ([| c |], [| 1.0 |], Simplex.Le, ub -. lb) :: !extra_rows
    end
  done;
  let n_cols = !next_col in
  (* Objective over solver columns; constant offset from lower bounds. *)
  let obj = Array.make n_cols 0.0 in
  let obj_const = ref 0.0 in
  let idx, coef = compact_terms n_user t.obj_terms in
  let sense = if t.sense_minimize then 1.0 else -1.0 in
  Array.iteri
    (fun k v ->
      let c = coef.(k) *. sense in
      match mapping.(v) with
      | Shifted (col, lb) ->
        obj.(col) <- obj.(col) +. c;
        obj_const := !obj_const +. (c *. lb)
      | Split (p, m) ->
        obj.(p) <- obj.(p) +. c;
        obj.(m) <- obj.(m) -. c)
    idx;
  let user_rows = List.rev t.rows in
  let all_rows =
    List.map (translate_row mapping n_user) user_rows @ List.rev !extra_rows
  in
  let m = List.length all_rows in
  let rows = Array.make m ([||], [||]) in
  let cmps = Array.make m Simplex.Eq in
  let rhs = Array.make m 0.0 in
  List.iteri
    (fun i (ix, cf, c, r) ->
      rows.(i) <- (ix, cf);
      cmps.(i) <- c;
      rhs.(i) <- r)
    all_rows;
  { mapping; n_user; obj; obj_const = !obj_const; sense; rows; cmps; rhs }

let wrap tr (out : Simplex.outcome) =
  match out.Simplex.status with
  | Simplex.Infeasible -> Infeasible
  | Simplex.Unbounded -> Unbounded
  | Simplex.Iteration_limit -> Iteration_limit
  | Simplex.Optimal ->
    let x = out.Simplex.x in
    let value v =
      if v < 0 || v >= tr.n_user then invalid_arg "solution value: bad var";
      match tr.mapping.(v) with
      | Shifted (col, lb) -> lb +. x.(col)
      | Split (p, mi) -> x.(p) -. x.(mi)
    in
    let objective = tr.sense *. (out.Simplex.objective +. tr.obj_const) in
    Optimal { objective; value; pivots = out.Simplex.pivots }

let solve ?max_pivots t =
  let tr = translate t in
  wrap tr
    (Simplex.solve ?max_pivots ~obj:tr.obj ~rows:tr.rows ~cmps:tr.cmps
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
  mutable core : (Simplex.Session.t * translated) option;
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
      ~obj:tr.obj ~rows:tr.rows ~cmps:tr.cmps ~rhs:tr.rhs ()
  in
  s.core <- Some (core, tr);
  s.seen_rows <- t.nrows;
  s.seen_vars <- t.nvars;
  wrap tr (Simplex.Session.outcome core)

let resolve s =
  let t = s.sp in
  match s.core with
  | None -> cold_start s
  | Some _ when t.nvars <> s.seen_vars ->
    (* New variables (or a changed objective shape) need a fresh build. *)
    retire s;
    cold_start s
  | Some (core, tr) ->
    let fresh = t.nrows - s.seen_rows in
    if fresh = 0 then wrap tr (Simplex.Session.outcome core)
    else begin
      (* [t.rows] is reversed: the first [fresh] entries are the new rows. *)
      let rec take k acc = function
        | r :: rest when k > 0 -> take (k - 1) (r :: acc) rest
        | _ -> acc
      in
      let new_rows = take fresh [] t.rows in
      List.iter
        (fun r ->
          let idx, vals, cmp, rhs = translate_row tr.mapping tr.n_user r in
          Simplex.Session.add_row core (idx, vals) cmp rhs)
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
      | _ -> wrap tr out
    end
