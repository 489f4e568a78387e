(* Tests for the LP substrate: the two-phase revised simplex, its LU
   factorization and the problem builder. Includes hand-checked
   instances and randomized property tests against the dense reference
   tableau ({!R3_lp.Simplex.reference_solve}) and a dense Gaussian
   solver. *)

module P = R3_lp.Problem
module S = R3_lp.Simplex

(* A solver row from parallel index and coefficient arrays. *)
let rv idx v = R3_util.Rowvec.of_pairs idx v

let close ?(tol = 1e-6) a b = Float.abs (a -. b) <= tol *. (1.0 +. Float.abs b)

let check_close name expected actual =
  if not (close expected actual) then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let solve_exn p =
  match P.solve p with
  | P.Optimal s -> s
  | P.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | P.Unbounded -> Alcotest.fail "unexpected: unbounded"
  | P.Iteration_limit -> Alcotest.fail "unexpected: iteration limit"

(* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic; opt 36) *)
let test_textbook_max () =
  let p = P.create () in
  let x = P.var p and y = P.var p in
  P.constr p [ (1.0, x) ] P.Le 4.0;
  P.constr p [ (2.0, y) ] P.Le 12.0;
  P.constr p [ (3.0, x); (2.0, y) ] P.Le 18.0;
  P.maximize p [ (3.0, x); (5.0, y) ];
  let s = solve_exn p in
  check_close "objective" 36.0 s.P.objective;
  check_close "x" 2.0 (s.P.value x);
  check_close "y" 6.0 (s.P.value y)

(* min x + y s.t. x + 2y >= 4, 3x + y >= 6 ; opt at intersection (1.6,1.2) *)
let test_min_ge () =
  let p = P.create () in
  let x = P.var p and y = P.var p in
  P.constr p [ (1.0, x); (2.0, y) ] P.Ge 4.0;
  P.constr p [ (3.0, x); (1.0, y) ] P.Ge 6.0;
  P.minimize p [ (1.0, x); (1.0, y) ];
  let s = solve_exn p in
  check_close "objective" 2.8 s.P.objective

let test_equality () =
  let p = P.create () in
  let x = P.var p and y = P.var p and z = P.var p in
  P.constr p [ (1.0, x); (1.0, y); (1.0, z) ] P.Eq 10.0;
  P.constr p [ (1.0, x); (-1.0, y) ] P.Eq 2.0;
  P.minimize p [ (1.0, x); (2.0, y); (3.0, z) ];
  (* Push everything out of z: z=0, x-y=2, x+y=10 -> x=6,y=4 -> 6+8=14 *)
  let s = solve_exn p in
  check_close "objective" 14.0 s.P.objective;
  check_close "z" 0.0 (s.P.value z)

let test_infeasible () =
  let p = P.create () in
  let x = P.var p in
  P.constr p [ (1.0, x) ] P.Le 1.0;
  P.constr p [ (1.0, x) ] P.Ge 2.0;
  P.minimize p [ (1.0, x) ];
  match P.solve p with
  | P.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  let p = P.create () in
  let x = P.var p and y = P.var p in
  P.constr p [ (1.0, x); (-1.0, y) ] P.Le 1.0;
  P.maximize p [ (1.0, x) ];
  match P.solve p with
  | P.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

(* Bounds are rows like any other: 2 <= x <= 5 and 1 <= y <= 4. *)
let test_bounds () =
  let p = P.create () in
  let x = P.var p and y = P.var p in
  P.constr p [ (1.0, x) ] P.Ge 2.0;
  P.constr p [ (1.0, x) ] P.Le 5.0;
  P.constr p [ (1.0, y) ] P.Ge 1.0;
  P.constr p [ (1.0, y) ] P.Le 4.0;
  P.constr p [ (1.0, x); (1.0, y) ] P.Le 7.0;
  P.maximize p [ (2.0, x); (1.0, y) ];
  let s = solve_exn p in
  (* x=5 (ub), then y=2 from the row: obj = 12 *)
  check_close "objective" 12.0 s.P.objective;
  check_close "x" 5.0 (s.P.value x)

(* Classic Beale-style degeneracy trigger: with x2 = 0 the rows force
   x1 <= x3 <= 1, so the optimum of max 0.75 x1 - 150 x2 + 0.02 x3 is
   0.77 at (1, 0, 1); buying slack via x2 never pays (18 extra objective
   per 150 of cost). Harris ratio test + Devex with the Bland fallback
   must terminate. *)
let beale_rows =
  [|
    rv [| 0; 1; 2 |] [| 0.25; -8.0; -1.0 |];
    rv [| 0; 1; 2 |] [| 0.5; -12.0; -0.5 |];
    rv [| 2 |] [| 1.0 |];
  |]

(* The reference tableau must survive the trap too: it is the oracle the
   revised engine is checked against. *)
let test_degenerate () =
  let out =
    S.reference_solve ~obj:[| -0.75; 150.0; -0.02 |] ~rows:beale_rows
      ~cmps:[| S.Le; S.Le; S.Le |] ~rhs:[| 0.0; 0.0; 1.0 |] ()
  in
  match out.S.status with
  | S.Optimal -> check_close "objective" (-0.77) out.S.objective
  | S.Unbounded -> Alcotest.fail "beale/reference: reported unbounded"
  | S.Infeasible -> Alcotest.fail "beale/reference: reported infeasible"
  | S.Iteration_limit -> Alcotest.fail "beale/reference: cycled to iteration limit"

let test_degenerate_revised () =
  let p = P.create () in
  let x1 = P.var p and x2 = P.var p and x3 = P.var p in
  P.constr p [ (0.25, x1); (-8.0, x2); (-1.0, x3) ] P.Le 0.0;
  P.constr p [ (0.5, x1); (-12.0, x2); (-0.5, x3) ] P.Le 0.0;
  P.constr p [ (1.0, x3) ] P.Le 1.0;
  P.maximize p [ (0.75, x1); (-150.0, x2); (0.02, x3) ];
  match P.solve p with
  | P.Optimal s -> check_close "objective" 0.77 s.P.objective
  | P.Unbounded -> Alcotest.fail "beale/revised: reported unbounded"
  | P.Infeasible -> Alcotest.fail "beale/revised: reported infeasible"
  | P.Iteration_limit -> Alcotest.fail "beale/revised: cycled to iteration limit"

(* Duplicates are summed in term order, so the order is part of a
   row's bits. The triple [1 + 1e16 - 1e16] is 0 in term order (the 1
   is lost to rounding), but 1 summed from the back. *)
let cancelling x = [ (1.0, x); (1e16, x); (-1e16, x) ]

let test_duplicate_terms () =
  let p = P.create () in
  let x = P.var p in
  (* 1x + 2x = 3x <= 9 -> x <= 3 *)
  P.constr p [ (1.0, x); (2.0, x) ] P.Le 9.0;
  P.maximize p [ (1.0, x) ];
  let s = solve_exn p in
  check_close "x" 3.0 (s.P.value x);
  (* The triple's row is empty, so only x <= 10 binds. *)
  let p = P.create () in
  let x = P.var p in
  P.constr p (cancelling x) P.Le 4.0;
  P.constr p [ (1.0, x) ] P.Le 10.0;
  P.maximize p [ (1.0, x) ];
  check_close "row summed in term order" 10.0 (solve_exn p).P.objective;
  (* In the objective the triple costs nothing; added one term at a
     time, the prepended terms are summed from the back and cost 1. *)
  let p = P.create () in
  let x = P.var p in
  P.constr p [ (1.0, x) ] P.Ge 3.0;
  P.minimize p (cancelling x);
  check_close "objective summed in term order" 0.0 (solve_exn p).P.objective;
  P.minimize p [];
  List.iter (fun (c, v) -> P.add_objective_term p c v) (cancelling x);
  check_close "prepended terms" 3.0 (solve_exn p).P.objective

(* Malformed input fails where it is made: a non-finite coefficient or
   right-hand side, or a variable of another problem, raises at
   [constr] or at the objective's setter, and a rejected row is not
   added. *)
let test_malformed_input () =
  let p = P.create () in
  let x = P.var p in
  let larger = P.create () in
  let _ = P.var larger in
  let z = P.var larger in
  let rejected label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: accepted" label
  in
  List.iter
    (fun (what, bad) ->
      rejected (what ^ " coefficient") (fun () -> P.constr p [ (1.0, x); (bad, x) ] P.Le 1.0);
      rejected (what ^ " right-hand side") (fun () -> P.constr p [ (1.0, x) ] P.Le bad);
      rejected (what ^ " in minimize") (fun () -> P.minimize p [ (bad, x) ]);
      rejected (what ^ " in maximize") (fun () -> P.maximize p [ (bad, x) ]);
      rejected (what ^ " objective term") (fun () -> P.add_objective_term p bad x))
    [ ("NaN", Float.nan); ("infinite", Float.infinity); ("negative infinite", Float.neg_infinity) ];
  rejected "variable of a larger problem" (fun () -> P.constr p [ (1.0, z) ] P.Le 1.0);
  rejected "objective variable of a larger problem" (fun () -> P.minimize p [ (1.0, z) ]);
  Alcotest.(check int) "no row added" 0 (P.num_constraints p);
  P.constr p [ (1.0, x) ] P.Le 2.0;
  P.maximize p [ (1.0, x) ];
  check_close "objective" 2.0 (solve_exn p).P.objective

let test_zero_objective () =
  let p = P.create () in
  let x = P.var p in
  P.constr p [ (1.0, x) ] P.Ge 3.0;
  P.constr p [ (1.0, x) ] P.Le 4.0;
  P.minimize p [];
  let s = solve_exn p in
  check_close "objective" 0.0 s.P.objective;
  let v = s.P.value x in
  if v < 3.0 -. 1e-7 || v > 4.0 +. 1e-7 then
    Alcotest.failf "x out of range: %g" v

(* Transportation problem with known optimum. Supplies [20;30], demands
   [10;25;15], costs below; optimal cost computed by hand = 20*1+0*3 ... use
   a small instance solved exactly: 2 sources x 3 sinks. *)
let test_transportation () =
  let supply = [| 20.0; 30.0 |] in
  let demand = [| 10.0; 25.0; 15.0 |] in
  let cost = [| [| 2.0; 3.0; 1.0 |]; [| 5.0; 4.0; 8.0 |] |] in
  let p = P.create () in
  let xv = Array.init 2 (fun _ -> Array.init 3 (fun _ -> P.var p)) in
  for i = 0 to 1 do
    P.constr p (List.init 3 (fun j -> (1.0, xv.(i).(j)))) P.Le supply.(i)
  done;
  for j = 0 to 2 do
    P.constr p (List.init 2 (fun i -> (1.0, xv.(i).(j)))) P.Eq demand.(j)
  done;
  let obj = ref [] in
  for i = 0 to 1 do
    for j = 0 to 2 do
      obj := (cost.(i).(j), xv.(i).(j)) :: !obj
    done
  done;
  P.minimize p !obj;
  let s = solve_exn p in
  (* Source 0 serves sink2 (15 @1) and sink0 (5 @2)... optimal assignment:
     x02=15, x00=5, x10=5, x11=25 -> 15+10+25+100 = 150. Check against a
     brute-force-verified value. *)
  check_close "objective" 150.0 s.P.objective

(* Random LPs: any Optimal answer must be primal feasible, and must not be
   beaten by any random feasible point we can construct. *)
let feasibility_prop =
  QCheck.Test.make ~count:200 ~name:"random LP optimal point is feasible"
    QCheck.(pair (int_bound 10_000) (pair (int_range 1 4) (int_range 1 5)))
    (fun (seed, (nv, nc)) ->
      let rng = R3_util.Prng.create (seed + 17) in
      let p = P.create () in
      let vars = Array.init nv (fun _ -> P.var p) in
      let rows =
        Array.init nc (fun _ ->
            let terms =
              Array.to_list vars
              |> List.map (fun v -> (R3_util.Prng.uniform rng (-2.0) 3.0, v))
            in
            let rhs = R3_util.Prng.uniform rng 0.5 10.0 in
            P.constr p terms P.Le rhs;
            (terms, rhs))
      in
      let obj =
        Array.to_list vars |> List.map (fun v -> (R3_util.Prng.uniform rng 0.1 2.0, v))
      in
      P.maximize p obj;
      match P.solve p with
      | P.Optimal s ->
        (* x = 0 is feasible (all rhs > 0), so objective >= 0. *)
        s.P.objective >= -1e-7
        && List.for_all
             (fun (terms, rhs) ->
               let lhs =
                 List.fold_left (fun a (c, v) -> a +. (c *. s.P.value v)) 0.0 terms
               in
               lhs <= rhs +. 1e-6 *. (1.0 +. Float.abs rhs))
             (Array.to_list rows)
        && List.for_all (fun v -> s.P.value v >= -1e-7) (Array.to_list vars)
      | P.Unbounded -> true (* possible when a column has all coefs <= 0 *)
      | P.Infeasible -> false (* x=0 is always feasible here *)
      | P.Iteration_limit -> false)

(* Self-duality check: solve a random primal and its explicit dual; strong
   duality requires equal objectives. Primal: max c x, Ax <= b, x >= 0.
   Dual: min b y, A^T y >= c, y >= 0. *)
let duality_prop =
  QCheck.Test.make ~count:100 ~name:"strong duality on random bounded LPs"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = R3_util.Prng.create (seed + 99) in
      let nv = 1 + R3_util.Prng.int rng 4 and nc = 1 + R3_util.Prng.int rng 4 in
      let a = Array.init nc (fun _ -> Array.init nv (fun _ -> R3_util.Prng.uniform rng 0.1 3.0)) in
      let b = Array.init nc (fun _ -> R3_util.Prng.uniform rng 1.0 10.0) in
      let c = Array.init nv (fun _ -> R3_util.Prng.uniform rng 0.1 3.0) in
      (* all-positive A ensures both primal boundedness and dual feasibility *)
      let primal = P.create () in
      let xs = Array.init nv (fun _ -> P.var primal) in
      for i = 0 to nc - 1 do
        P.constr primal (List.init nv (fun j -> (a.(i).(j), xs.(j)))) P.Le b.(i)
      done;
      P.maximize primal (List.init nv (fun j -> (c.(j), xs.(j))));
      let dual = P.create () in
      let ys = Array.init nc (fun _ -> P.var dual) in
      for j = 0 to nv - 1 do
        P.constr dual (List.init nc (fun i -> (a.(i).(j), ys.(i)))) P.Ge c.(j)
      done;
      P.minimize dual (List.mapi (fun i v -> (b.(i), v)) (Array.to_list ys));
      match (P.solve primal, P.solve dual) with
      | P.Optimal sp, P.Optimal sd -> close ~tol:1e-5 sp.P.objective sd.P.objective
      | _ -> false)

(* --- LU factorization engine vs a dense Gaussian reference ----------- *)

module Lu = R3_lp.Lu
module Prng = R3_util.Prng

(* Dense partial-pivoting Gaussian elimination: the oracle the sparse
   LU's FTRAN/BTRAN and eta file are checked against. *)
let gauss_solve a b =
  let m = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  let perm = Array.init m (fun i -> i) in
  for k = 0 to m - 1 do
    let best = ref k in
    for i = k + 1 to m - 1 do
      if Float.abs a.(perm.(i)).(k) > Float.abs a.(perm.(!best)).(k) then
        best := i
    done;
    let t = perm.(k) in
    perm.(k) <- perm.(!best);
    perm.(!best) <- t;
    let p = a.(perm.(k)).(k) in
    for i = k + 1 to m - 1 do
      let f = a.(perm.(i)).(k) /. p in
      if f <> 0.0 then begin
        for j = k to m - 1 do
          a.(perm.(i)).(j) <- a.(perm.(i)).(j) -. (f *. a.(perm.(k)).(j))
        done;
        b.(perm.(i)) <- b.(perm.(i)) -. (f *. b.(perm.(k)))
      end
    done
  done;
  let x = Array.make m 0.0 in
  for k = m - 1 downto 0 do
    let s = ref b.(perm.(k)) in
    for j = k + 1 to m - 1 do
      s := !s -. (a.(perm.(k)).(j) *. x.(j))
    done;
    x.(k) <- !s /. a.(perm.(k)).(k)
  done;
  x

let mat_transpose a =
  let m = Array.length a in
  Array.init m (fun i -> Array.init m (fun j -> a.(j).(i)))

let mat_col a k =
  let m = Array.length a in
  let idx = ref [] and v = ref [] in
  for i = m - 1 downto 0 do
    if a.(i).(k) <> 0.0 then begin
      idx := i :: !idx;
      v := a.(i).(k) :: !v
    end
  done;
  R3_util.Rowvec.of_pairs (Array.of_list !idx) (Array.of_list !v)

(* Factor the square matrix [a], position [k] holding column [k]. *)
let refactor_mat lu m a =
  Lu.refactor lu ~m ~cols:(Array.init m (mat_col a)) ~basis:(Array.init m Fun.id)

(* Well-conditioned sparse-ish test matrix: dominant diagonal plus ~30%
   random off-diagonal fill. *)
let random_matrix rng m =
  Array.init m (fun i ->
      Array.init m (fun j ->
          if i = j then 1.0 +. Prng.uniform rng 0.0 2.0
          else if Prng.uniform rng 0.0 1.0 < 0.3 then Prng.uniform rng (-2.0) 2.0
          else 0.0))

(* Factor a basis expected to be nonsingular. *)
let refactor_full lu m a =
  match refactor_mat lu m a with
  | [] -> ()
  | (k, _) :: _ -> Alcotest.failf "m=%d: position %d reported deficient" m k

let check_vec label tol x y =
  let err = ref 0.0 in
  Array.iteri (fun i xi -> err := Float.max !err (Float.abs (xi -. y.(i)))) x;
  if !err > tol then Alcotest.failf "%s: max err %.3e > %.1e" label !err tol

(* Randomized FTRAN/BTRAN against the dense oracle, including eta-file
   chains: after every basis-column replacement recorded via [update],
   solves must still match a from-scratch dense solve of the replaced
   matrix to 1e-9 (1e-8 after long eta chains). *)
let test_lu_solves () =
  let rng = Prng.create 7 in
  for trial = 0 to 79 do
    let m = 1 + Prng.int rng 28 in
    let a = random_matrix rng m in
    let lu = Lu.create () in
    refactor_full lu m a;
    let b = Array.init m (fun _ -> Prng.uniform rng (-1.0) 1.0) in
    let w = Array.copy b in
    ignore (Lu.ftran lu w);
    check_vec (Printf.sprintf "ftran m=%d trial=%d" m trial) 1e-9 w
      (gauss_solve a b);
    let c = Array.init m (fun _ -> Prng.uniform rng (-1.0) 1.0) in
    let y = Array.copy c in
    ignore (Lu.btran lu y);
    check_vec (Printf.sprintf "btran m=%d trial=%d" m trial) 1e-9 y
      (gauss_solve (mat_transpose a) c);
    (* Eta chain: replace a few columns, keeping pivots comfortable. *)
    for _s = 1 to 1 + Prng.int rng 8 do
      let r = Prng.int rng m in
      let col =
        Array.init m (fun _ ->
            if Prng.uniform rng 0.0 1.0 < 0.4 then Prng.uniform rng (-2.0) 2.0
            else 0.0)
      in
      let w = Array.copy col in
      ignore (Lu.ftran lu w);
      if Float.abs w.(r) > 0.1 then begin
        Lu.update lu ~r ~w;
        for i = 0 to m - 1 do
          a.(i).(r) <- col.(i)
        done
      end
    done;
    let b2 = Array.init m (fun _ -> Prng.uniform rng (-1.0) 1.0) in
    let w2 = Array.copy b2 in
    ignore (Lu.ftran lu w2);
    check_vec (Printf.sprintf "eta-ftran m=%d trial=%d" m trial) 1e-8 w2
      (gauss_solve a b2);
    let c2 = Array.init m (fun _ -> Prng.uniform rng (-1.0) 1.0) in
    let y2 = Array.copy c2 in
    ignore (Lu.btran lu y2);
    check_vec (Printf.sprintf "eta-btran m=%d trial=%d" m trial) 1e-8 y2
      (gauss_solve (mat_transpose a) c2)
  done

(* One [Lu.t] reused across refactorizations at growing (and shrinking)
   dimensions: the persistent factor arrays and scratch must resize and
   old state must not leak into the new factorization. *)
let test_lu_reuse_growth () =
  let rng = Prng.create 11 in
  let lu = Lu.create () in
  List.iter
    (fun m ->
      let a = random_matrix rng m in
      refactor_full lu m a;
      let b = Array.init m (fun _ -> Prng.uniform rng (-1.0) 1.0) in
      let w = Array.copy b in
      ignore (Lu.ftran lu w);
      check_vec (Printf.sprintf "regrow ftran m=%d" m) 1e-9 w (gauss_solve a b);
      let c = Array.init m (fun _ -> Prng.uniform rng (-1.0) 1.0) in
      let y = Array.copy c in
      ignore (Lu.btran lu y);
      check_vec
        (Printf.sprintf "regrow btran m=%d" m)
        1e-9 y
        (gauss_solve (mat_transpose a) c))
    [ 4; 31; 12; 50; 3 ]

(* Rank-deficient bases: [refactor] must report exactly the dependent
   positions, each paired with a distinct row, and its factors must
   then solve the basis with those positions replaced by the unit
   columns of their rows. Dependent columns sit at higher positions
   with no fewer nonzeros than the columns they depend on, so the
   nnz-ordered elimination meets them last and they are the ones left
   without a pivot (a zero column is met first and never pivots). *)
let test_lu_rank_deficient () =
  let rng = Prng.create 23 in
  let check_case label m a ~expect =
    let lu = Lu.create () in
    let pairs = refactor_mat lu m a in
    Alcotest.(check (list int))
      (label ^ ": deficient positions") expect (List.map fst pairs);
    let rows = List.sort_uniq Int.compare (List.map snd pairs) in
    Alcotest.(check int) (label ^ ": distinct rows") (List.length pairs)
      (List.length rows);
    List.iter
      (fun (k, r) ->
        for i = 0 to m - 1 do
          a.(i).(k) <- (if i = r then 1.0 else 0.0)
        done)
      pairs;
    for t = 1 to 3 do
      let b = Array.init m (fun _ -> Prng.uniform rng (-1.0) 1.0) in
      let w = Array.copy b in
      ignore (Lu.ftran lu w);
      check_vec (Printf.sprintf "%s: ftran %d" label t) 1e-9 w (gauss_solve a b);
      let c = Array.init m (fun _ -> Prng.uniform rng (-1.0) 1.0) in
      let y = Array.copy c in
      ignore (Lu.btran lu y);
      check_vec
        (Printf.sprintf "%s: btran %d" label t)
        1e-9 y
        (gauss_solve (mat_transpose a) c)
    done
  in
  let set_col a k f = Array.iteri (fun i row -> row.(k) <- f i) a in
  for trial = 0 to 19 do
    let m = 6 + Prng.int rng 20 in
    let tag what = Printf.sprintf "%s m=%d trial=%d" what m trial in
    (* a zero column *)
    let a = random_matrix rng m in
    let z = Prng.int rng m in
    set_col a z (fun _ -> 0.0);
    check_case (tag "zero column") m a ~expect:[ z ];
    (* a duplicated column *)
    let a = random_matrix rng m in
    let p = Prng.int rng (m - 1) in
    let q = p + 1 + Prng.int rng (m - 1 - p) in
    set_col a q (fun i -> a.(i).(p));
    check_case (tag "duplicated column") m a ~expect:[ q ];
    (* a column equal to the sum of two others *)
    let a = random_matrix rng m in
    let c = 2 + Prng.int rng (m - 2) in
    let i1 = Prng.int rng c in
    let i2 = (i1 + 1 + Prng.int rng (c - 1)) mod c in
    set_col a c (fun i -> a.(i).(i1) +. a.(i).(i2));
    check_case (tag "sum column") m a ~expect:[ c ];
    (* all three at once *)
    let a = random_matrix rng m in
    set_col a 0 (fun _ -> 0.0);
    set_col a (m - 2) (fun i -> a.(i).(1));
    set_col a (m - 1) (fun i -> a.(i).(2) +. a.(i).(3));
    check_case (tag "three deficiencies") m a ~expect:[ 0; m - 2; m - 1 ]
  done

(* The hypersparse sweeps, which the simplex runs on nearly every solve:
   right-hand sides of 1-3 nonzeros, few enough that [Lu]'s density
   cutoff (input count * 8 > m) keeps them off the dense sweeps. Sizes
   straddle the step queue's 32-step words; m = 1,500 spans two summary
   words and is checked by its residual, the rest against the dense
   oracle. Each solve must also return a pattern that lists every
   nonzero of the result exactly once. *)

(* Column [j] of a column-diagonally dominant, so nonsingular, matrix: a
   diagonal in [4, 6], a subdiagonal entry at half the columns (reach
   chains that run across many steps) and a random off-diagonal entry at
   half of them. *)
let sparse_col rng m j =
  let entries = ref [ (j, 4.0 +. Prng.uniform rng 0.0 2.0) ] in
  let add i =
    if not (List.mem_assoc i !entries) then
      entries := (i, Prng.uniform rng (-1.0) 1.0) :: !entries
  in
  if j + 1 < m && Prng.int rng 2 = 0 then add (j + 1);
  if Prng.int rng 2 = 0 then add (Prng.int rng m);
  let entries = List.sort compare !entries in
  (Array.of_list (List.map fst entries), Array.of_list (List.map snd entries))

let cols_dense cols =
  let m = Array.length cols in
  let a = Array.make_matrix m m 0.0 in
  Array.iteri (fun k (idx, v) -> Array.iteri (fun s i -> a.(i).(k) <- v.(s)) idx) cols;
  a

(* [x] holds [n] distinct random entries, listed in [pat]. *)
let sparse_rhs rng m n =
  let x = Array.make m 0.0 and pat = Array.make m 0 in
  let k = ref 0 in
  while !k < n do
    let i = Prng.int rng m in
    if x.(i) = 0.0 then begin
      x.(i) <- Prng.uniform rng 0.5 1.5 *. if Prng.int rng 2 = 0 then 1.0 else -1.0;
      pat.(!k) <- i;
      incr k
    end
  done;
  (x, pat)

let check_pattern label x pat rn =
  let seen = Array.make (Array.length x) false in
  for s = 0 to rn - 1 do
    if seen.(pat.(s)) then Alcotest.failf "%s: pattern lists %d twice" label pat.(s);
    seen.(pat.(s)) <- true
  done;
  Array.iteri
    (fun i xi ->
      if xi <> 0.0 && not seen.(i) then
        Alcotest.failf "%s: nonzero %d (%g) missing from the pattern" label i xi)
    x

(* max |B x - b| for FTRAN (x over positions, b over rows) and
   max |B^T y - c| for BTRAN (y over rows, c over positions). *)
let residual_ftran cols x b =
  let r = Array.copy b in
  Array.iteri
    (fun k (idx, v) -> Array.iteri (fun s i -> r.(i) <- r.(i) -. (v.(s) *. x.(k))) idx)
    cols;
  Array.fold_left (fun acc ri -> Float.max acc (Float.abs ri)) 0.0 r

let residual_btran cols y c =
  let err = ref 0.0 in
  Array.iteri
    (fun k (idx, v) ->
      let dot = ref 0.0 in
      Array.iteri (fun s i -> dot := !dot +. (v.(s) *. y.(i))) idx;
      err := Float.max !err (Float.abs (!dot -. c.(k))))
    cols;
  !err

let test_lu_hypersparse () =
  let rng = Prng.create 41 in
  let solves label lu cols ~tol =
    let m = Array.length cols in
    let dense = if m <= 300 then Some (cols_dense cols) else None in
    for trial = 1 to 12 do
      let n = 1 + Prng.int rng (Int.min 3 (m / 8)) in
      let tag dir = Printf.sprintf "%s m=%d %s %d (%d nonzeros)" label m dir trial n in
      let b, pat = sparse_rhs rng m n in
      let x = Array.copy b in
      let rn = Lu.ftran_pat lu x pat n in
      check_pattern (tag "ftran") x pat rn;
      (match dense with
      | Some a -> check_vec (tag "ftran") tol x (gauss_solve a b)
      | None ->
        let r = residual_ftran cols x b in
        if r > tol then Alcotest.failf "%s: residual %.3e > %.1e" (tag "ftran") r tol);
      let c, pat = sparse_rhs rng m n in
      let y = Array.copy c in
      let rn = Lu.btran_pat lu y pat n in
      check_pattern (tag "btran") y pat rn;
      match dense with
      | Some a -> check_vec (tag "btran") tol y (gauss_solve (mat_transpose a) c)
      | None ->
        let r = residual_btran cols y c in
        if r > tol then Alcotest.failf "%s: residual %.3e > %.1e" (tag "btran") r tol
    done
  in
  List.iter
    (fun m ->
      let cols = Array.init m (sparse_col rng m) in
      let lu = Lu.create () in
      let store = Array.map (fun (idx, v) -> R3_util.Rowvec.of_pairs idx v) cols in
      (match Lu.refactor lu ~m ~cols:store ~basis:(Array.init m Fun.id) with
      | [] -> ()
      | (k, _) :: _ -> Alcotest.failf "m=%d: position %d reported deficient" m k);
      solves "fresh" lu cols ~tol:1e-9;
      (* Eta chain: replace columns by sparse ones, FTRAN'd through the
         hypersparse path as the simplex does. *)
      for _ = 1 to 10 do
        let r = Prng.int rng m in
        let idx, v = sparse_col rng m r in
        let w = Array.make m 0.0 and pat = Array.make m 0 in
        Array.iteri (fun s i -> w.(i) <- v.(s); pat.(s) <- i) idx;
        let n = Array.length idx in
        let rn = Lu.ftran_pat lu w pat n in
        if Float.abs w.(r) > 0.1 then begin
          Lu.update_pat lu ~r ~w ~pat ~n:rn;
          cols.(r) <- (idx, v)
        end
      done;
      solves "eta" lu cols ~tol:1e-8)
    [ 8; 31; 32; 33; 63; 64; 65; 300; 1500 ]

(* Engine agreement: on random LPs the revised engine, cold and from a
   random start basis, and the dense reference tableau must report the
   same status, and at [Optimal] the same objective (within tolerance)
   at primal-feasible points. The LPs are max c.x over x >= 0; the
   engines minimize, so the objective is negated. The start puts random
   columns basic in random rows: dense random coefficients make it
   nonsingular, and its basic values may be negative, which the
   composite artificial and phase 1 repair. *)
let reference_agree_prop =
  QCheck.Test.make ~count:100 ~name:"reference and revised agree"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = R3_util.Prng.create (seed + 31) in
      let nv = 2 + R3_util.Prng.int rng 5 and nc = 2 + R3_util.Prng.int rng 6 in
      let rows =
        Array.init nc (fun _ ->
            let coef = Array.init nv (fun _ -> R3_util.Prng.uniform rng (-2.0) 3.0) in
            (* x = 0 satisfies every row, so the LP is always feasible:
               Le rows get a positive rhs, Ge rows a negative one. *)
            let cmp, rhs =
              if R3_util.Prng.int rng 4 = 0 then
                (S.Ge, R3_util.Prng.uniform rng (-8.0) (-0.5))
              else (S.Le, R3_util.Prng.uniform rng 0.5 10.0)
            in
            (coef, cmp, rhs))
      in
      let obj = Array.init nv (fun _ -> -.R3_util.Prng.uniform rng 0.1 2.0) in
      let feasible (o : S.outcome) =
        Array.for_all
          (fun (coef, cmp, rhs) ->
            let lhs = ref 0.0 in
            Array.iteri (fun j c -> lhs := !lhs +. (c *. o.S.x.(j))) coef;
            let tol = 1e-6 *. (1.0 +. Float.abs rhs) in
            match cmp with
            | S.Le -> !lhs <= rhs +. tol
            | S.Ge -> !lhs >= rhs -. tol
            | S.Eq -> Float.abs (!lhs -. rhs) <= tol)
          rows
        && Array.for_all (fun v -> v >= -1e-9) o.S.x
      in
      let solve f =
        f ~obj
          ~rows:(Array.map (fun (c, _, _) -> R3_util.Rowvec.of_dense c) rows)
          ~cmps:(Array.map (fun (_, c, _) -> c) rows)
          ~rhs:(Array.map (fun (_, _, b) -> b) rows)
          ()
      in
      let reference = solve (S.reference_solve ?max_pivots:None) in
      let revised = solve (S.solve ?max_pivots:None ?start:None) in
      let k = 1 + R3_util.Prng.int rng (Int.min nv nc) in
      let start =
        Array.to_list
          (Array.combine
             (R3_util.Prng.sample rng k (Array.init nc Fun.id))
             (R3_util.Prng.sample rng k (Array.init nv Fun.id)))
      in
      let started = solve (S.solve ?max_pivots:None ~start) in
      let agrees (o : S.outcome) =
        match (reference.S.status, o.S.status) with
        | S.Optimal, S.Optimal ->
          close ~tol:1e-6 reference.S.objective o.S.objective
          && feasible reference && feasible o
        | a, b -> a = b
      in
      agrees revised && agrees started)

(* [min obj] over [rows] on both engines, the revised one from [start].
   Returns the phase-1 pivots of the started solve alone (the reference
   counts on [lp.phase1_pivots] too). *)
let started_vs_reference ~obj ~rows ~cmps ~rhs ~start =
  let rows = Array.map (fun (idx, v) -> rv idx v) rows in
  let phase1 () = R3_util.Metrics.counter_value "lp.phase1_pivots" in
  let reference = S.reference_solve ~obj ~rows ~cmps ~rhs () in
  let before = phase1 () in
  let started = S.solve ~start ~obj ~rows ~cmps ~rhs () in
  let p1 = phase1 () - before in
  (match (reference.S.status, started.S.status) with
  | S.Optimal, S.Optimal -> ()
  | _ -> Alcotest.fail "both solves should reach an optimum");
  check_close "objective" reference.S.objective started.S.objective;
  p1

(* Two identical columns started in two rows make a singular basis: the
   factorization gives one position back to its row's slack, counts the
   swap on [lp.rev.fallbacks], and the solve still ends at the optimum. *)
let test_start_singular () =
  let fallbacks () = R3_util.Metrics.counter_value "lp.rev.fallbacks" in
  let before = fallbacks () in
  (* min -x - y - 2z  s.t.  x + y + z <= 4;  x + y + 3z <= 6;  z <= 1.
     Columns x and y are equal. *)
  let rows =
    [|
      ([| 0; 1; 2 |], [| 1.0; 1.0; 1.0 |]); ([| 0; 1; 2 |], [| 1.0; 1.0; 3.0 |]); ([| 2 |], [| 1.0 |]);
    |]
  in
  ignore
    (started_vs_reference ~obj:[| -1.0; -1.0; -2.0 |] ~rows ~cmps:[| S.Le; S.Le; S.Le |]
       ~rhs:[| 4.0; 6.0; 1.0 |] ~start:[ (0, 0); (1, 1) ]);
  if fallbacks () <= before then Alcotest.fail "the singular start was not repaired"

(* A start whose basic values are negative: y basic in [x - y <= 1]
   reads y = -1. One composite artificial lifts it, phase 1 drives that
   out, and phase 2 reaches the optimum (-5, on x + y = 5). *)
let test_start_negative () =
  if
    started_vs_reference ~obj:[| -1.0; -1.0 |]
      ~rows:[| ([| 0; 1 |], [| 1.0; -1.0 |]); ([| 0; 1 |], [| 1.0; 1.0 |]); ([| 1 |], [| 1.0 |]) |]
      ~cmps:[| S.Le; S.Le; S.Le |] ~rhs:[| 1.0; 5.0; 3.0 |] ~start:[ (0, 1) ]
    = 0
  then Alcotest.fail "the negative start ran no phase 1"

(* A start names rows and variables of the problem it solves: a row at
   [num_constraints] or a variable of a larger problem is rejected, and
   so is reading such a variable from a solution. [z]'s index is a
   column the solver does have (row 0's surplus), so only the range
   check stands between it and the basis. *)
let test_start_out_of_range () =
  let p = P.create () in
  let x = P.var p and y = P.var p in
  P.constr p [ (1.0, x); (1.0, y) ] P.Ge 1.0;
  P.constr p [ (1.0, x); (1.0, y) ] P.Le 4.0;
  P.minimize p [ (-1.0, x) ];
  let larger = P.create () in
  let _ = P.var larger and _ = P.var larger in
  let z = P.var larger in
  let rejected label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted" label
  in
  rejected "row = num_constraints" (fun () ->
      P.solve ~start:[ (P.num_constraints p, x) ] p);
  rejected "variable of a larger problem" (fun () -> P.solve ~start:[ (1, z) ] p);
  match P.solve ~start:[ (1, x) ] p with
  | P.Optimal s ->
    check_close "objective" (-4.0) s.P.objective;
    rejected "value of a larger problem's variable" (fun () -> s.P.value z)
  | _ -> Alcotest.fail "in-range start not optimal"

(* Uncovered inequality rows start on their own slack or surplus. Here
   x is started basic in [x <= 3], so the uncovered [x + y >= 2] starts
   on its surplus at 1: the start is feasible and phase 1 has nothing
   to do. (On its artificial, the row would read 2 - 3 < 0 and need
   phase 1.) *)
let test_start_surplus () =
  Alcotest.(check int) "phase-1 pivots" 0
    (started_vs_reference ~obj:[| 1.0; 2.0 |]
       ~rows:[| ([| 0; 1 |], [| 1.0; 1.0 |]); ([| 0 |], [| 1.0 |]) |]
       ~cmps:[| S.Ge; S.Le |] ~rhs:[| 2.0; 3.0 |] ~start:[ (1, 0) ])

(* An uncovered surplus can start negative: x basic in [x - y <= 1]
   reads 1, so the surplus of the uncovered [x + y >= 4] reads -3. The
   composite artificial lifts it, phase 1 runs, and the solve still
   ends at the optimum (4). *)
let test_start_negative_surplus () =
  if
    started_vs_reference ~obj:[| 1.0; 1.0 |]
      ~rows:[| ([| 0; 1 |], [| 1.0; 1.0 |]); ([| 0; 1 |], [| 1.0; -1.0 |]) |]
      ~cmps:[| S.Ge; S.Le |] ~rhs:[| 4.0; 1.0 |] ~start:[ (1, 0) ]
    = 0
  then Alcotest.fail "the negative surplus ran no phase 1"

(* An equality row the start does not list keeps its artificial: with x
   basic in [x <= 2], the artificial of [x + y = 3] starts at 1, so
   phase 1 runs before phase 2 reaches the optimum (-3). *)
let test_start_equality_artificial () =
  if
    started_vs_reference ~obj:[| -1.0; -1.0 |]
      ~rows:[| ([| 0; 1 |], [| 1.0; 1.0 |]); ([| 0 |], [| 1.0 |]) |]
      ~cmps:[| S.Eq; S.Le |] ~rhs:[| 3.0; 2.0 |] ~start:[ (1, 0) ]
    = 0
  then Alcotest.fail "the equality row's artificial ran no phase 1"

(* Random feasible, bounded LPs whose rows mix >= and <= with either
   sign of right-hand side (so >= rows with positive rhs and <= rows
   with negative rhs, which both become >= rows, and the odd equality),
   solved from a start that lists fewer rows than there are: each
   uncovered inequality row starts on its slack or surplus, which may
   be negative. Every solve must match the dense reference tableau. *)
let uncovered_rows_prop =
  QCheck.Test.make ~count:150 ~name:"starts with uncovered rows agree with the reference"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = R3_util.Prng.create (seed + 977) in
      let nv = 2 + R3_util.Prng.int rng 5 and nc = 2 + R3_util.Prng.int rng 6 in
      (* Every row holds at x0, so the LP is feasible; costs are
         positive, so it is bounded. *)
      let x0 = Array.init nv (fun _ -> R3_util.Prng.uniform rng 0.0 2.0) in
      let rows =
        Array.init nc (fun _ ->
            let coef = Array.init nv (fun _ -> R3_util.Prng.uniform rng (-2.0) 3.0) in
            let at_x0 = ref 0.0 in
            Array.iteri (fun j c -> at_x0 := !at_x0 +. (c *. x0.(j))) coef;
            let gap = R3_util.Prng.uniform rng 0.0 1.0 in
            match R3_util.Prng.int rng 7 with
            | 0 -> (coef, S.Eq, !at_x0)
            | 1 | 2 | 3 -> (coef, S.Ge, !at_x0 -. gap)
            | _ -> (coef, S.Le, !at_x0 +. gap))
      in
      let obj = Array.init nv (fun _ -> R3_util.Prng.uniform rng 0.1 2.0) in
      let k = 1 + R3_util.Prng.int rng (Int.min nv (nc - 1)) in
      let start =
        Array.to_list
          (Array.combine
             (R3_util.Prng.sample rng k (Array.init nc Fun.id))
             (R3_util.Prng.sample rng k (Array.init nv Fun.id)))
      in
      let args f =
        f ~obj
          ~rows:(Array.map (fun (c, _, _) -> R3_util.Rowvec.of_dense c) rows)
          ~cmps:(Array.map (fun (_, c, _) -> c) rows)
          ~rhs:(Array.map (fun (_, _, b) -> b) rows)
          ()
      in
      let reference = args (S.reference_solve ?max_pivots:None) in
      let started = args (S.solve ?max_pivots:None ~start) in
      reference.S.status = S.Optimal
      && started.S.status = S.Optimal
      && close ~tol:1e-6 reference.S.objective started.S.objective
      && Array.for_all (fun v -> v >= -1e-9) started.S.x
      && Array.for_all
           (fun (coef, cmp, rhs) ->
             let lhs = ref 0.0 in
             Array.iteri (fun j c -> lhs := !lhs +. (c *. started.S.x.(j))) coef;
             let tol = 1e-6 *. (1.0 +. Float.abs rhs) in
             match cmp with
             | S.Le -> !lhs <= rhs +. tol
             | S.Ge -> !lhs >= rhs -. tol
             | S.Eq -> Float.abs (!lhs -. rhs) <= tol)
           rows)

(* Warm-started sessions: after any number of added cut rows, a warm
   [resolve] must agree (status and objective) with a cold solve of the
   same augmented system. Exercises the dual-simplex repair path of
   {!R3_lp.Simplex.Session} exactly as constraint generation uses it. *)
let warm_equals_cold_prop =
  QCheck.Test.make ~count:60 ~name:"warm session = cold solve (revised)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = R3_util.Prng.create (seed + 77) in
      let nv = 2 + R3_util.Prng.int rng 4 in
      let nc0 = 2 + R3_util.Prng.int rng 4 in
      (* min of a nonnegative objective over x >= 0: always bounded, and
         x = 0 is feasible for the base system below. *)
      let obj = Array.init nv (fun _ -> R3_util.Prng.uniform rng 0.1 2.0) in
      let random_row () =
        let idx = Array.init nv Fun.id in
        let coef = Array.init nv (fun _ -> R3_util.Prng.uniform rng (-1.0) 2.0) in
        (rv idx coef, S.Le, R3_util.Prng.uniform rng 0.5 10.0)
      in
      (* A couple of Ge rows with positive coefficients push the optimum
         away from the origin so cuts have something to fight. *)
      let ge_row () =
        let idx = Array.init nv Fun.id in
        let coef = Array.init nv (fun _ -> R3_util.Prng.uniform rng 0.1 1.0) in
        (rv idx coef, S.Ge, R3_util.Prng.uniform rng 0.5 5.0)
      in
      let base =
        List.init nc0 (fun i -> if i mod 2 = 0 then ge_row () else random_row ())
      in
      let rows l = Array.of_list (List.map (fun (r, _, _) -> r) l) in
      let cmps l = Array.of_list (List.map (fun (_, c, _) -> c) l) in
      let rhs l = Array.of_list (List.map (fun (_, _, b) -> b) l) in
      let sess =
        S.Session.create ~obj ~rows:(rows base) ~cmps:(cmps base)
          ~rhs:(rhs base) ()
      in
      let acc = ref (List.rev base) in
      let rounds = 1 + R3_util.Prng.int rng 3 in
      let ok = ref true in
      for _ = 1 to rounds do
        let cuts = List.init (1 + R3_util.Prng.int rng 2) (fun _ -> random_row ()) in
        List.iter
          (fun (r, c, b) ->
            S.Session.add_row sess r c b;
            acc := (r, c, b) :: !acc)
          cuts;
        let warm = S.Session.resolve sess in
        let l = List.rev !acc in
        let cold =
          S.solve ~obj ~rows:(rows l) ~cmps:(cmps l) ~rhs:(rhs l) ()
        in
        (match (warm.S.status, cold.S.status) with
        | S.Optimal, S.Optimal ->
          if not (close ~tol:1e-6 warm.S.objective cold.S.objective) then
            ok := false
        | S.Iteration_limit, _ when not (S.Session.warm_ok sess) ->
          (* Documented contract: an unusable warm state reports
             [Iteration_limit] and the caller falls back to a cold solve,
             which is exactly the reference we just computed. *)
          ()
        | a, b -> if a <> b then ok := false)
      done;
      !ok)

(* Warm starts must pay off on the revised engine: repairing the carried
   LU after a handful of cuts should cost far fewer pivots than re-solving
   the augmented LP from a slack basis — this is the whole point of
   carrying the factorization across [resolve] for constraint generation. *)
let test_warm_fewer_pivots_revised () =
  let rng = Prng.create 5 in
  let nv = 40 in
  let obj = Array.init nv (fun _ -> Prng.uniform rng 0.5 2.0) in
  let row lo hi =
    rv (Array.init nv Fun.id) (Array.init nv (fun _ -> Prng.uniform rng lo hi))
  in
  (* Ge rows with positive coefficients keep the optimum off the origin,
     so the added cuts have an active solution to invalidate. *)
  let base =
    List.init 30 (fun i ->
        if i mod 2 = 0 then (row 0.1 1.0, S.Ge, Prng.uniform rng 1.0 5.0)
        else (row (-1.0) 2.0, S.Le, Prng.uniform rng 5.0 20.0))
  in
  let rows l = Array.of_list (List.map (fun (r, _, _) -> r) l) in
  let cmps l = Array.of_list (List.map (fun (_, c, _) -> c) l) in
  let rhs l = Array.of_list (List.map (fun (_, _, b) -> b) l) in
  let sess =
    S.Session.create ~obj ~rows:(rows base)
      ~cmps:(cmps base) ~rhs:(rhs base) ()
  in
  (match (S.Session.outcome sess).S.status with
  | S.Optimal -> ()
  | _ -> Alcotest.fail "base solve not optimal");
  let cold_pivots_base = S.Session.pivots sess in
  let cuts =
    List.init 4 (fun _ -> (row (-0.5) 1.5, S.Le, Prng.uniform rng 4.0 15.0))
  in
  List.iter (fun (r, c, b) -> S.Session.add_row sess r c b) cuts;
  let warm = S.Session.resolve sess in
  (match warm.S.status with
  | S.Optimal -> ()
  | _ -> Alcotest.fail "warm resolve not optimal");
  let warm_extra = S.Session.pivots sess - cold_pivots_base in
  let l = base @ cuts in
  let cold =
    S.solve ~obj ~rows:(rows l) ~cmps:(cmps l) ~rhs:(rhs l) ()
  in
  (match cold.S.status with
  | S.Optimal -> ()
  | _ -> Alcotest.fail "cold solve not optimal");
  if not (close ~tol:1e-9 warm.S.objective cold.S.objective) then
    Alcotest.failf "warm %.12g vs cold %.12g" warm.S.objective cold.S.objective;
  if warm_extra >= cold.S.pivots then
    Alcotest.failf "warm repair spent %d pivots, cold solve only %d" warm_extra
      cold.S.pivots;
  if S.Session.refactorizations sess < 1 then
    Alcotest.fail "revised session never factorized its basis"

(* Deterministic end-to-end run of the Problem-level incremental API. *)
let test_problem_session () =
  let p = P.create () in
  let x = P.var p and y = P.var p in
  P.constr p [ (1.0, x) ] P.Le 4.0;
  P.constr p [ (2.0, y) ] P.Le 12.0;
  P.constr p [ (3.0, x); (2.0, y) ] P.Le 18.0;
  P.maximize p [ (3.0, x); (5.0, y) ];
  let s = P.session p in
  (match P.resolve s with
  | P.Optimal sol -> check_close "initial objective" 36.0 sol.P.objective
  | _ -> Alcotest.fail "initial solve not optimal");
  (* Cut off the optimum (2, 6): force x + y <= 6; new optimum 30 at
     (0, 6), where the cut and 2y <= 12 are both active. *)
  P.constr p [ (1.0, x); (1.0, y) ] P.Le 6.0;
  (match P.resolve s with
  | P.Optimal sol ->
    check_close "after cut 1" 30.0 sol.P.objective;
    check_close "row satisfied" 6.0 (sol.P.value x +. sol.P.value y)
  | _ -> Alcotest.fail "resolve after cut not optimal");
  (* Second round: squeeze y directly. Optimum x<=4 active: 12 + 10 = 22. *)
  P.constr p [ (1.0, y) ] P.Le 2.0;
  (match P.resolve s with
  | P.Optimal sol -> check_close "after cut 2" 22.0 sol.P.objective
  | _ -> Alcotest.fail "resolve after cut 2 not optimal");
  if P.session_pivots s <= 0 then Alcotest.fail "session spent no pivots"

(* A session's columns are fixed at its first solve: a variable added
   later makes the next resolve raise instead of rebuilding cold. *)
let test_session_new_variable () =
  let p = P.create () in
  let x = P.var p in
  P.constr p [ (1.0, x) ] P.Le 4.0;
  P.maximize p [ (1.0, x) ];
  let s = P.session p in
  (match P.resolve s with
  | P.Optimal sol -> check_close "objective" 4.0 sol.P.objective
  | _ -> Alcotest.fail "initial solve not optimal");
  let y = P.var p in
  P.constr p [ (1.0, x); (1.0, y) ] P.Le 3.0;
  match P.resolve s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a variable added after the first solve was accepted"

let suite =
  [
    Alcotest.test_case "textbook max" `Quick test_textbook_max;
    Alcotest.test_case "min with >= rows" `Quick test_min_ge;
    Alcotest.test_case "equality rows" `Quick test_equality;
    Alcotest.test_case "infeasible detected" `Quick test_infeasible;
    Alcotest.test_case "unbounded detected" `Quick test_unbounded;
    Alcotest.test_case "variable bounds" `Quick test_bounds;
    Alcotest.test_case "degenerate (Beale)" `Quick test_degenerate;
    Alcotest.test_case "degenerate (Beale, revised)" `Quick
      test_degenerate_revised;
    Alcotest.test_case "LU ftran/btran vs dense oracle" `Quick test_lu_solves;
    Alcotest.test_case "LU reuse across dimensions" `Quick
      test_lu_reuse_growth;
    Alcotest.test_case "LU rank-deficient bases" `Quick
      test_lu_rank_deficient;
    Alcotest.test_case "LU hypersparse solves vs oracle" `Quick test_lu_hypersparse;
    Alcotest.test_case "warm revised session beats cold" `Quick
      test_warm_fewer_pivots_revised;
    Alcotest.test_case "duplicate terms summed" `Quick test_duplicate_terms;
    Alcotest.test_case "malformed input rejected" `Quick test_malformed_input;
    Alcotest.test_case "zero objective / pure feasibility" `Quick test_zero_objective;
    Alcotest.test_case "transportation instance" `Quick test_transportation;
    Alcotest.test_case "incremental session (Problem API)" `Quick
      test_problem_session;
    Alcotest.test_case "session rejects new variables" `Quick test_session_new_variable;
    Alcotest.test_case "singular start basis is repaired" `Quick test_start_singular;
    Alcotest.test_case "negative start basis runs phase 1" `Quick test_start_negative;
    Alcotest.test_case "start basis out of range" `Quick test_start_out_of_range;
    Alcotest.test_case "uncovered >= row starts on its surplus" `Quick test_start_surplus;
    Alcotest.test_case "negative uncovered surplus runs phase 1" `Quick
      test_start_negative_surplus;
    Alcotest.test_case "uncovered equality row keeps its artificial" `Quick
      test_start_equality_artificial;
    QCheck_alcotest.to_alcotest feasibility_prop;
    QCheck_alcotest.to_alcotest duality_prop;
    QCheck_alcotest.to_alcotest reference_agree_prop;
    QCheck_alcotest.to_alcotest uncovered_rows_prop;
    QCheck_alcotest.to_alcotest warm_equals_cold_prop;
  ]
