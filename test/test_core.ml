(* Tests for the R3 core: offline precomputation (both solve methods),
   online reconfiguration (the Section 3.3 worked example), and the
   theorems as executable properties. *)

module G = R3_net.Graph
module Routing = R3_net.Routing
module Traffic = R3_net.Traffic
module Topology = R3_net.Topology
module Offline = R3_core.Offline
module Reconfig = R3_core.Reconfig
module Verify = R3_core.Verify
module Vd = R3_core.Virtual_demand

let feq ?(tol = 1e-6) a b = Float.abs (a -. b) <= tol *. (1.0 +. Float.abs b)

let check_f ?tol name expected actual =
  if not (feq ?tol expected actual) then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let plan_exn result =
  match result with
  | Ok plan -> plan
  | Error msg -> Alcotest.failf "offline failed: %s" msg

(* Small demand on the square fixture: enough headroom for F=1. *)
let square_tm ~volume =
  let tm = Traffic.zeros 4 in
  tm.(0).(2) <- volume;
  tm.(1).(3) <- volume;
  tm

let test_virtual_demand_membership () =
  let g = Topology.triangle () in
  let m = G.num_links g in
  let x = Array.make m 0.0 in
  Alcotest.(check bool) "zero in X_F" true (Vd.member g ~f:1 x);
  x.(0) <- G.capacity g 0;
  Alcotest.(check bool) "one full link in X_1" true (Vd.member g ~f:1 x);
  x.(1) <- G.capacity g 1;
  Alcotest.(check bool) "two full links not in X_1" false (Vd.member g ~f:1 x);
  Alcotest.(check bool) "two full links in X_2" true (Vd.member g ~f:2 x)

let test_worst_virtual_load () =
  let w = [| 5.0; 1.0; 3.0; 0.0; 4.0 |] in
  check_f "f=1" 5.0 (Vd.worst_virtual_load ~f:1 w);
  check_f "f=2" 9.0 (Vd.worst_virtual_load ~f:2 w);
  check_f "f=3" 12.0 (Vd.worst_virtual_load ~f:3 w);
  check_f "f=10 caps at positives" 13.0 (Vd.worst_virtual_load ~f:10 w);
  let v, set = Vd.worst_virtual_load_set ~f:2 w in
  check_f "set value" 9.0 v;
  Alcotest.(check (list int)) "argmax set" [ 0; 4 ] (List.sort Int.compare set)

(* extreme_points must agree with the membership predicate and the
   knapsack bound: the max over extreme points of a linear functional
   equals worst_virtual_load. *)
let test_extreme_points_vs_knapsack () =
  let g = Topology.square () in
  let m = G.num_links g in
  let points = Vd.extreme_points g ~f:2 in
  Alcotest.(check bool) "all points in X_F" true
    (List.for_all (Vd.member g ~f:2) points);
  let rng = R3_util.Prng.create 3 in
  let p_row = Array.init m (fun _ -> R3_util.Prng.float rng 0.5) in
  let best_extreme =
    List.fold_left
      (fun acc x ->
        let v = ref 0.0 in
        Array.iteri (fun l xv -> v := !v +. (xv *. p_row.(l))) x;
        Float.max acc !v)
      0.0 points
  in
  let weights = Array.init m (fun l -> G.capacity g l *. p_row.(l)) in
  check_f "knapsack = max over extreme points" best_extreme
    (Vd.worst_virtual_load ~f:2 weights)

(* extreme_points counts before it builds: on UUNet (336 directed
   links) f = 4 gives 527,953,637 points, over the default limit, so it
   must raise at once with the exact count. A count that takes one step
   per point takes seconds here. *)
let test_extreme_points_limit () =
  let g = Topology.uunet_like () in
  Alcotest.(check int) "links" 336 (G.num_links g);
  let t0 = Sys.time () in
  (match Vd.extreme_points g ~f:4 with
  | _ -> Alcotest.fail "no limit error"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) ("exact count in: " ^ msg) true
      (String.starts_with ~prefix:"Virtual_demand.extreme_points: 527953637 points" msg));
  let dt = Sys.time () -. t0 in
  if dt > 0.5 then Alcotest.failf "counting took %.2f s" dt

(* The Section 3.3 worked example: 4 parallel links, p_e1 = p_e2 =
   (0.1, 0.2, 0.3, 0.4). After e1 fails: xi_e1 = (-, 2/9, 3/9, 4/9) and
   p'_e2 = (0, 0.2 + 0.1*2/9, 0.3 + 0.1*3/9, 0.4 + 0.1*4/9). *)
let test_paper_example_rescaling () =
  let g = Topology.parallel_links ~capacities:[ 1.0; 2.0; 3.0; 4.0 ] in
  (* Links 0,2,4,6 are i->j (e1..e4); 1,3,5,7 are the reverses. *)
  let i_to_j = Array.init 8 (fun e -> e) |> Array.to_list
               |> List.filter (fun e -> G.src g e = 0) in
  let e1, e2, e3, e4 =
    match i_to_j with
    | [ a; b; c; d ] -> (a, b, c, d)
    | _ -> Alcotest.fail "expected 4 parallel i->j links"
  in
  let pairs = [| (0, 1) |] in
  let base = Routing.create g ~pairs in
  Routing.set base (0) (e1) 1.0;
  let protection = Routing.create g ~pairs:(Array.init 8 (fun e -> (G.src g e, G.dst g e))) in
  let assign l values =
    List.iter2 (fun e v -> Routing.set protection (l) (e) v) [ e1; e2; e3; e4 ] values
  in
  assign e1 [ 0.1; 0.2; 0.3; 0.4 ];
  assign e2 [ 0.1; 0.2; 0.3; 0.4 ];
  let st = Reconfig.make g ~pairs ~demands:[| 0.5 |] ~base ~protection in
  let xi = Reconfig.detour st e1 in
  check_f "xi(e2)" (2.0 /. 9.0) xi.(e2);
  check_f "xi(e3)" (3.0 /. 9.0) xi.(e3);
  check_f "xi(e4)" (4.0 /. 9.0) xi.(e4);
  check_f "xi(e1)" 0.0 xi.(e1);
  let st' = Reconfig.apply_failures st [ e1 ] in
  let p' = Routing.row_dense st'.Reconfig.protection e2 in
  check_f "p'_e2(e1)" 0.0 p'.(e1);
  check_f "p'_e2(e2)" (0.2 +. (0.1 *. 2.0 /. 9.0)) p'.(e2);
  check_f "p'_e2(e3)" (0.3 +. (0.1 *. 3.0 /. 9.0)) p'.(e3);
  check_f "p'_e2(e4)" (0.4 +. (0.1 *. 4.0 /. 9.0)) p'.(e4);
  (* Base traffic of e1 is detoured the same way. *)
  let base' = Reconfig.base st' in
  let r' = Routing.row_dense base' 0 in
  check_f "r'(e2)" (2.0 /. 9.0) r'.(e2);
  check_f "r'(e1)" 0.0 r'.(e1);
  (* The updated base routing remains valid. *)
  (match Routing.validate g ~failed:st'.Reconfig.failed base' with
  | Ok () -> ()
  | Error m -> Alcotest.fail m)

let test_offline_square_f1 () =
  let g = Topology.square () in
  let tm = square_tm ~volume:2.0 in
  let cfg = Offline.default_config ~f:1 in
  let plan = plan_exn (Offline.compute cfg g tm Offline.Joint) in
  (* Routings must be valid. *)
  (match Routing.validate g plan.Offline.base with
  | Ok () -> ()
  | Error m -> Alcotest.failf "base invalid: %s" m);
  (match Routing.validate g plan.Offline.protection with
  | Ok () -> ()
  | Error m -> Alcotest.failf "protection invalid: %s" m);
  Alcotest.(check bool)
    (Printf.sprintf "congestion-free plan (mlu=%.3f)" plan.Offline.mlu)
    true (plan.Offline.mlu <= 1.0 +. 1e-6);
  (* The LP's MLU must match the independent knapsack verifier. *)
  let base_loads = Routing.loads g ~demands:plan.Offline.demands plan.Offline.base in
  let audited =
    Verify.offline_worst_mlu g ~f:1 ~base_loads ~protection:plan.Offline.protection
  in
  check_f ~tol:1e-4 "LP mlu = audited mlu" audited plan.Offline.mlu

let test_cg_equals_dualized () =
  let g = Topology.square () in
  let tm = square_tm ~volume:2.0 in
  let dual = plan_exn (Offline.compute (Offline.default_config ~f:1) g tm Offline.Joint) in
  let cg =
    plan_exn
      (Offline.compute
         { (Offline.default_config ~f:1) with solve_method = Offline.Constraint_gen }
         g tm Offline.Joint)
  in
  check_f ~tol:1e-4 "same optimal MLU" dual.Offline.mlu cg.Offline.mlu

let test_cg_equals_dualized_f2 () =
  let g = Topology.triangle () in
  let tm = Traffic.zeros 3 in
  tm.(0).(1) <- 1.0;
  tm.(1).(2) <- 1.5;
  let dual = plan_exn (Offline.compute (Offline.default_config ~f:2) g tm Offline.Joint) in
  let cg =
    plan_exn
      (Offline.compute
         { (Offline.default_config ~f:2) with solve_method = Offline.Constraint_gen }
         g tm Offline.Joint)
  in
  check_f ~tol:1e-4 "same optimal MLU (f=2)" dual.Offline.mlu cg.Offline.mlu

let test_theorem1_square () =
  let g = Topology.square () in
  let tm = square_tm ~volume:2.0 in
  let plan = plan_exn (Offline.compute (Offline.default_config ~f:1) g tm Offline.Joint) in
  match Verify.check_theorem1 plan with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_theorem1_abilene_fixed_base () =
  (* F = 1 (directed): Abilene has degree-2 nodes, so F >= 2 cannot be
     congestion-free-guaranteed (virtual demands alone exceed the nodes'
     egress capacity) - the paper notes the sufficient condition may be
     unattainable. F = 1 with light load is guaranteed. *)
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 11 in
  let tm = Traffic.gravity rng g ~load_factor:0.1 () in
  let pairs, _ = Traffic.commodities tm in
  let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
  let cfg =
    { (Offline.default_config ~f:1) with solve_method = Offline.Constraint_gen }
  in
  let plan = plan_exn (Offline.compute cfg g tm (Offline.Fixed base)) in
  Alcotest.(check bool)
    (Printf.sprintf "abilene f=1 congestion-free (mlu=%.3f)" plan.Offline.mlu)
    true (plan.Offline.mlu <= 1.0 +. 1e-6);
  match Verify.check_theorem1 ~samples:120 plan with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_order_independence () =
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 13 in
  let tm = Traffic.gravity rng g ~load_factor:0.2 () in
  let pairs, _ = Traffic.commodities tm in
  let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
  let cfg =
    { (Offline.default_config ~f:3) with solve_method = Offline.Constraint_gen }
  in
  let plan = plan_exn (Offline.compute cfg g tm (Offline.Fixed base)) in
  match Verify.check_order_independence plan [ 0; 7; 15 ] with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* Proposition 1: on parallel-link networks, the canonical R3 protection
   (split every virtual demand across all parallel links in proportion to
   capacity - what Section 3.3 says the offline phase produces) is optimal
   under any number of failures: after failing links with total capacity
   C_f, every surviving link has utilization d / (C - C_f), the flow
   optimum. The LP may return a different (tied) optimum of (3), so the
   per-scenario check uses the canonical plan; the LP's offline MLU* is
   checked against the analytic value (d + F c) / (k c). *)
let canonical_parallel_plan g ~demand ~f =
  let forward = List.filter (fun e -> G.src g e = 0) (List.init (G.num_links g) (fun e -> e)) in
  let total_cap = List.fold_left (fun a e -> a +. G.capacity g e) 0.0 forward in
  let pairs = [| (0, 1) |] in
  let base = Routing.create g ~pairs in
  List.iter (fun e -> Routing.set base 0 e (G.capacity g e /. total_cap)) forward;
  let link_pairs = Array.init (G.num_links g) (fun e -> (G.src g e, G.dst g e)) in
  let p = Routing.create g ~pairs:link_pairs in
  Array.iteri
    (fun l (a, _) ->
      if a = 0 then
        List.iter
          (fun e -> Routing.set p l e (G.capacity g e /. total_cap))
          forward
      else begin
        (* reverse direction: same structure on the reverse links *)
        let backward =
          List.filter (fun e -> G.src g e = 1) (List.init (G.num_links g) (fun e -> e))
        in
        List.iter
          (fun e -> Routing.set p l e (G.capacity g e /. total_cap))
          backward
      end)
    (Routing.pairs p);
  {
    Offline.graph = g;
    f;
    pairs;
    demands = [| demand |];
    base;
    protection = p;
    mlu = 0.0;
    lp_vars = 0;
    lp_rows = 0;
    lp_pivots = 0;
  }

let test_proposition1_parallel () =
  let caps = [ 10.0; 10.0; 10.0; 10.0 ] in
  let g = Topology.parallel_links ~capacities:caps in
  let demand = 12.0 in
  let tm = Traffic.zeros 2 in
  tm.(0).(1) <- demand;
  (* LP offline optimum equals the analytic (d + F c)/(k c) = 0.8. *)
  let plan = plan_exn (Offline.compute (Offline.default_config ~f:2) g tm Offline.Joint) in
  check_f ~tol:1e-4 "offline MLU* analytic" 0.8 plan.Offline.mlu;
  (* Canonical proportional plan is per-scenario optimal for any number
     of failures. *)
  let canon = canonical_parallel_plan g ~demand ~f:2 in
  let forward = List.filter (fun e -> G.src g e = 0) (List.init 8 (fun e -> e)) in
  (match forward with
  | e1 :: e2 :: e3 :: _ ->
    check_f ~tol:1e-6 "one failure optimal" (demand /. 30.0) (Verify.scenario_mlu canon [ e1 ]);
    check_f ~tol:1e-6 "two failures optimal" (demand /. 20.0)
      (Verify.scenario_mlu canon [ e1; e2 ]);
    check_f ~tol:1e-6 "three failures optimal" (demand /. 10.0)
      (Verify.scenario_mlu canon [ e1; e2; e3 ])
  | _ -> Alcotest.fail "expected parallel links")

let test_proposition1_heterogeneous () =
  let caps = [ 1.0; 2.0; 3.0; 4.0 ] in
  let g = Topology.parallel_links ~capacities:caps in
  let demand = 4.0 in
  let canon = canonical_parallel_plan g ~demand ~f:2 in
  let forward = List.filter (fun e -> G.src g e = 0) (List.init 8 (fun e -> e)) in
  List.iter
    (fun e ->
      let remaining = 10.0 -. G.capacity g e in
      check_f ~tol:1e-6
        (Printf.sprintf "fail link cap %g" (G.capacity g e))
        (demand /. remaining)
        (Verify.scenario_mlu canon [ e ]))
    forward

(* Theorem 2 construction (16): from a per-scenario protection p* with no
   congestion under every single-link failure, build p and check that
   d + X_1 is congestion-free, via the knapsack audit. *)
let test_theorem2_construction () =
  let caps = [ 10.0; 10.0; 10.0 ] in
  let g = Topology.parallel_links ~capacities:caps in
  let forward = List.filter (fun e -> G.src g e = 0) (List.init 6 (fun e -> e)) in
  let e1, e2, e3 =
    match forward with [ a; b; c ] -> (a, b, c) | _ -> Alcotest.fail "links"
  in
  let pairs = [| (0, 1) |] in
  let demand = 12.0 in
  (* Base: spread demand evenly -> load 4 per link. *)
  let base = Routing.create g ~pairs in
  List.iter (fun e -> Routing.set base 0 e (1.0 /. 3.0)) [ e1; e2; e3 ];
  (* p*: on failure of any link, split its traffic evenly on the others;
     loads become 4 + 2 = 6 <= 10: no congestion. Construction (16):
     p_e(e) = 1 - load(e)/c_e = 1 - 0.4 = 0.6,
     p_e(l) = p*_e(l) * load(e)/c_e = 0.5 * 0.4 = 0.2. *)
  let link_pairs = Array.init 6 (fun e -> (G.src g e, G.dst g e)) in
  let p = Routing.create g ~pairs:link_pairs in
  List.iter
    (fun e ->
      Routing.set p (e) (e) 0.6;
      List.iter
        (fun l -> if l <> e then Routing.set p e l 0.2)
        [ e1; e2; e3 ])
    [ e1; e2; e3 ];
  (* reverse-direction links: idle, protect trivially via themselves *)
  List.iter
    (fun e ->
      let r = Option.get (G.reverse_link g e) in
      Routing.set p (r) (r) 1.0)
    [ e1; e2; e3 ];
  (match Routing.validate g p with
  | Ok () -> ()
  | Error m -> Alcotest.failf "constructed p invalid: %s" m);
  let base_loads = Routing.loads g ~demands:[| demand |] base in
  let audited = Verify.offline_worst_mlu g ~f:1 ~base_loads ~protection:p in
  Alcotest.(check bool)
    (Printf.sprintf "d + X_1 congestion-free (audited mlu=%.3f)" audited)
    true
    (audited <= 1.0 +. 1e-9)

(* Penalty envelope: with beta close to 1 the no-failure MLU must stay
   within beta * optimal, and the unconstrained-R3 normal MLU can exceed
   the constrained one. *)
let test_penalty_envelope () =
  let g = Topology.square () in
  let tm = square_tm ~volume:3.0 in
  (* Optimal no-failure MLU: route 0->2 on the diagonal (cap 10): depends;
     compute via joint f=0. *)
  let opt_plan = plan_exn (Offline.compute (Offline.default_config ~f:0) g tm Offline.Joint) in
  let mlu_opt = opt_plan.Offline.mlu in
  let beta = 1.1 in
  let cfg = { (Offline.default_config ~f:1) with envelope = Some (beta, mlu_opt) } in
  let plan = plan_exn (Offline.compute cfg g tm Offline.Joint) in
  let normal_loads = Routing.loads g ~demands:plan.Offline.demands plan.Offline.base in
  let normal_mlu = Routing.mlu g ~loads:normal_loads in
  Alcotest.(check bool)
    (Printf.sprintf "normal MLU %.4f within beta*opt %.4f" normal_mlu (beta *. mlu_opt))
    true
    (normal_mlu <= (beta *. mlu_opt) +. 1e-5)

(* Multi-TM (convex hull): plan must be congestion-free for both matrices. *)
let test_multi_tm () =
  let g = Topology.square () in
  let tm1 = square_tm ~volume:2.0 in
  let tm2 = Traffic.zeros 4 in
  tm2.(0).(1) <- 2.5;
  tm2.(2).(0) <- 1.5;
  let cfg = Offline.default_config ~f:1 in
  let plan = plan_exn (Offline.compute_multi cfg g [ tm1; tm2 ] Offline.Joint) in
  Alcotest.(check bool) "hull plan congestion-free" true (plan.Offline.mlu <= 1.0 +. 1e-6);
  (* audit against both matrices *)
  List.iter
    (fun tm ->
      let demands = Array.map (fun (a, b) -> tm.(a).(b)) plan.Offline.pairs in
      let base_loads = Routing.loads g ~demands plan.Offline.base in
      let u = Verify.offline_worst_mlu g ~f:1 ~base_loads ~protection:plan.Offline.protection in
      Alcotest.(check bool) "matrix within guarantee" true (u <= plan.Offline.mlu +. 1e-4))
    [ tm1; tm2 ]

(* Randomized Theorem-1 property on small random topologies. *)
let theorem1_prop =
  QCheck.Test.make ~count:12 ~name:"theorem 1 holds on random small topologies"
    QCheck.(int_bound 1_000)
    (fun seed ->
      let g =
        Topology.random ~seed:(seed + 3) ~nodes:5 ~undirected_links:8
          ~capacities:[ (10.0, 1.0) ] ()
      in
      let rng = R3_util.Prng.create seed in
      let tm = Traffic.gravity rng g ~load_factor:0.15 () in
      let cfg =
        { (Offline.default_config ~f:1) with solve_method = Offline.Constraint_gen }
      in
      match Offline.compute cfg g tm Offline.Joint with
      | Error _ -> QCheck.assume_fail () (* partitionable topologies excluded *)
      | Ok plan ->
        if plan.Offline.mlu > 1.0 then QCheck.assume_fail ()
        else begin
          match Verify.check_theorem1 plan with Ok () -> true | Error _ -> false
        end)

(* Order independence as a randomized property (Theorem 3). The theorem
   applies in the regime where reconfiguration drops nothing: once a
   failure pair partitions a destination (p_e(e) reaches 1 mid-sequence),
   the doomed traffic is blackholed at a head router that depends on the
   failure order, so the upstream flows legitimately differ. Such pairs
   are excluded (both orders still agree on every delivered commodity). *)
let order_independence_prop =
  QCheck.Test.make ~count:15 ~name:"rescaling is order independent"
    QCheck.(pair (int_bound 1_000) (pair (int_bound 27) (int_bound 27)))
    (fun (seed, (l1, l2)) ->
      QCheck.assume (l1 <> l2);
      let g = Topology.abilene () in
      let rng = R3_util.Prng.create seed in
      let tm = Traffic.gravity rng g ~load_factor:0.2 () in
      let pairs, _ = Traffic.commodities tm in
      let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
      let cfg =
        { (Offline.default_config ~f:2) with solve_method = Offline.Constraint_gen }
      in
      match Offline.compute cfg g tm (Offline.Fixed base) with
      | Error _ -> QCheck.assume_fail ()
      | Ok plan ->
        let delivered order =
          Reconfig.delivered_fraction
            (Reconfig.apply_failures (Reconfig.of_plan plan) order)
        in
        if delivered [ l1; l2 ] < 0.999 || delivered [ l2; l1 ] < 0.999 then
          QCheck.assume_fail ()
        else begin
          match Verify.check_order_independence plan [ l1; l2 ] with
          | Ok () -> true
          | Error _ -> false
        end)


(* Delay penalty envelope (Section 3.5): bounding each OD pair's mean
   propagation delay by gamma times its shortest-path delay. *)
let test_delay_envelope () =
  let g = Topology.square () in
  let tm = square_tm ~volume:2.0 in
  let cfg =
    { (Offline.default_config ~f:1) with delay_envelope = Some 1.5 }
  in
  let plan = plan_exn (Offline.compute cfg g tm Offline.Joint) in
  Array.iteri
    (fun k (a, b) ->
      let best = R3_net.Spf.min_propagation_delay g ~src:a ~dst:b () in
      let actual = Routing.mean_delay g plan.Offline.base k in
      if actual > (1.5 *. best) +. 1e-6 then
        Alcotest.failf "pair %d->%d: delay %.3f exceeds 1.5 x %.3f" a b actual best)
    plan.Offline.pairs

(* A sufficiently tight delay envelope can be infeasible together with a
   protection requirement; the solver must report it rather than return a
   bogus plan. *)
let test_delay_envelope_tightness () =
  let g = Topology.square () in
  let tm = square_tm ~volume:2.0 in
  let loose = { (Offline.default_config ~f:1) with delay_envelope = Some 10.0 } in
  let loose_mlu = (plan_exn (Offline.compute loose g tm Offline.Joint)).Offline.mlu in
  let tight = { (Offline.default_config ~f:1) with delay_envelope = Some 1.0 } in
  (match Offline.compute tight g tm Offline.Joint with
  | Ok plan ->
    (* gamma = 1 forces shortest-path-only base routing; the protected MLU
       can only get worse (or equal). *)
    Alcotest.(check bool) "tight envelope cannot improve MLU" true
      (plan.Offline.mlu >= loose_mlu -. 1e-6)
  | Error _ -> () (* infeasibility is also an acceptable outcome *))

(* The Domain-parallel separation oracle must produce exactly the plan the
   sequential oracle does: same cuts in the same order, hence bit-identical
   pivot counts, row counts and routing fractions. *)
let test_parallel_oracle_deterministic () =
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 19 in
  let tm = Traffic.gravity rng g ~load_factor:0.2 () in
  let pairs, _ = Traffic.commodities tm in
  let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
  let cfg =
    { (Offline.default_config ~f:1) with solve_method = Offline.Constraint_gen }
  in
  let run () = plan_exn (Offline.compute cfg g tm (Offline.Fixed base)) in
  let before = R3_util.Parallel.domains () in
  let par, seq =
    Fun.protect
      ~finally:(fun () -> R3_util.Parallel.set_domains before)
      (fun () ->
        R3_util.Parallel.set_domains 4;
        let par = run () in
        R3_util.Parallel.set_domains 1;
        (par, run ()))
  in
  Alcotest.(check bool) "same MLU (exactly)" true
    (Float.equal par.Offline.mlu seq.Offline.mlu);
  Alcotest.(check int) "same LP rows" seq.Offline.lp_rows par.Offline.lp_rows;
  Alcotest.(check int) "same pivots" seq.Offline.lp_pivots par.Offline.lp_pivots;
  Alcotest.(check bool) "bit-identical protection routing" true
    (Routing.to_dense_matrix par.Offline.protection
    = Routing.to_dense_matrix seq.Offline.protection);
  Alcotest.(check bool) "bit-identical base routing" true
    (Routing.to_dense_matrix par.Offline.base
    = Routing.to_dense_matrix seq.Offline.base)

(* Constraint generation and the dualized LP (7) are two formulations of
   one optimum, solved through different LPs on the one simplex engine:
   their protected MLU must agree. Checked on Abilene and a 16-node,
   36-link synthetic PoP graph. *)
let test_cg_equals_dualized_larger () =
  let check_topo name g seed =
    let rng = R3_util.Prng.create seed in
    let tm = Traffic.gravity rng g ~load_factor:0.3 () in
    let pairs, _ = Traffic.commodities tm in
    let base =
      R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs ()
    in
    let run solve_method =
      let cfg = { (Offline.default_config ~f:1) with solve_method } in
      plan_exn (Offline.compute cfg g tm (Offline.Fixed base))
    in
    let cg = run Offline.Constraint_gen and dual = run Offline.Dualized in
    if
      Float.abs (cg.Offline.mlu -. dual.Offline.mlu)
      > 1e-6 *. Float.abs dual.Offline.mlu
    then
      Alcotest.failf "%s: CG MLU %.12g vs dualized MLU %.12g" name
        cg.Offline.mlu dual.Offline.mlu;
    if cg.Offline.lp_pivots <= 0 || dual.Offline.lp_pivots <= 0 then
      Alcotest.failf "%s: an LP reports no pivots" name
  in
  check_topo "abilene" (Topology.abilene ()) 7;
  check_topo "16-node"
    (Topology.random ~seed:3 ~nodes:16 ~undirected_links:18
       ~capacities:[ (100.0, 2.0); (400.0, 1.0) ] ())
    21

(* [Reconfig.fail] keeps canonical order whatever order failures arrive
   in: failing the higher link first and the lower one second must land
   on the bits of failing both at once, for every pair of Abilene's 14
   physical links, on CG plans for F = 1 and F = 2 (the F = 2 plan is
   best-effort; only the fold order matters here). *)
let test_fail_out_of_order_canonical () =
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 7 in
  let tm = Traffic.gravity rng g ~load_factor:0.3 () in
  let pairs, _ = Traffic.commodities tm in
  let base =
    R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs ()
  in
  let phys = R3_sim.Scenarios.physical_links g in
  let sc links = R3_core.Scenario.of_physical g links in
  List.iter
    (fun f ->
      let cfg =
        { (Offline.default_config ~f) with solve_method = Offline.Constraint_gen }
      in
      let root =
        Reconfig.of_plan (plan_exn (Offline.compute cfg g tm (Offline.Fixed base)))
      in
      let bad = ref [] in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              if i < j then begin
                let stepped = Reconfig.fail (Reconfig.fail root (sc [ b ])) (sc [ a ]) in
                let batch = Reconfig.fail root (sc [ a; b ]) in
                if not (Reconfig.states_bit_identical stepped batch) then
                  bad := (a, b) :: !bad
              end)
            phys)
        phys;
      if !bad <> [] then
        Alcotest.failf "F=%d: %d of %d link pairs fold out of canonical order, e.g. %s"
          f (List.length !bad)
          (Array.length phys * (Array.length phys - 1) / 2)
          (String.concat ", "
             (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b)
                (List.filteri (fun k _ -> k < 3) (List.rev !bad)))))
    [ 1; 2 ]

(* The one-pass weight columns carry the bits of the per-entry lookup
   they replaced, [c_l *. Routing.get p l e], absent entries included. *)
let test_weight_columns () =
  let check_routing name g p =
    let m = G.num_links g in
    let cols = Vd.weight_columns g p in
    for e = 0 to m - 1 do
      for l = 0 to m - 1 do
        let want = G.capacity g l *. Routing.get p l e in
        if Int64.bits_of_float cols.(e).(l) <> Int64.bits_of_float want then
          Alcotest.failf "%s: column %d entry %d is %h, lookup gives %h" name e l
            cols.(e).(l) want
      done
    done
  in
  let g =
    Topology.random ~seed:36 ~nodes:36 ~undirected_links:80
      ~capacities:[ (10.0, 0.5); (40.0, 0.3); (100.0, 0.2) ]
      ()
  in
  let m = G.num_links g in
  let rng = R3_util.Prng.create 5 in
  let p = Routing.create g ~pairs:(Array.init m (fun e -> (G.src g e, G.dst g e))) in
  for l = 0 to m - 1 do
    for e = 0 to m - 1 do
      if R3_util.Prng.int rng 10 = 0 then Routing.set p l e (R3_util.Prng.float rng 1.0)
    done
  done;
  check_routing "pop36 random" g p;
  let g = Topology.square () in
  let plan =
    plan_exn (Offline.compute (Offline.default_config ~f:1) g (square_tm ~volume:1.0) Offline.Joint)
  in
  check_routing "square plan" g plan.Offline.protection

(* Golden bits of the benchmark's Table 2 recipe: constraint generation
   over a unit-weight OSPF base and a gravity matrix per network, under
   a 60,000-pivot budget. Nothing else pins the LP's floating-point path:
   a solve that reorders one subtraction moves MLU*, the pivot count or
   the protection routing's bits. *)
let protection_md5 (p : Routing.t) =
  let buf = Buffer.create 65536 in
  for e = 0 to Routing.num_commodities p - 1 do
    Routing.iter_row p e (fun l x ->
        Buffer.add_int32_le buf (Int32.of_int e);
        Buffer.add_int32_le buf (Int32.of_int l);
        Buffer.add_int64_le buf (Int64.bits_of_float x))
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden_table2 () =
  List.iter
    (fun (tag, g, f, mlu, pivots, md5) ->
      let what = Printf.sprintf "%s-f%d" tag f in
      let tm = Traffic.gravity (R3_util.Prng.create (Hashtbl.hash tag)) g ~load_factor:0.3 () in
      let pairs, _ = Traffic.commodities tm in
      let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
      let cfg =
        { (Offline.default_config ~f) with
          solve_method = Offline.Constraint_gen;
          max_pivots = Some 60_000;
        }
      in
      let p = plan_exn (Offline.compute cfg g tm (Offline.Fixed base)) in
      Alcotest.(check string) (what ^ ": MLU* bits") mlu (Printf.sprintf "%h" p.Offline.mlu);
      Alcotest.(check int) (what ^ ": pivots") pivots p.Offline.lp_pivots;
      Alcotest.(check string) (what ^ ": protection bits") md5
        (protection_md5 p.Offline.protection))
    [
      ("abilene", Topology.abilene (), 1, "0x1.c228c26915d52p-1", 382,
        "8c685ac5c7c00b807e5b0018b6f5a0d6");
      ("abilene", Topology.abilene (), 2, "0x1.611461348aea8p+0", 505,
        "539a3751d14b47ad9d32f1b19a7a6367");
      ("abilene", Topology.abilene (), 3, "0x1.611461348aea8p+0", 1021,
        "275ddde2cbc077afc3eef637e6282a3d");
      ("usisp", Topology.usisp_like (), 1, "0x1.834cf91442f33p-1", 996,
        "2a91e00fe1ea75d815be9409e6670c0f");
      ("usisp", Topology.usisp_like (), 2, "0x1.16fbd1df76cefp+0", 3342,
        "00874d9856db821423ed2f79f6474d2b");
      ("level3", Topology.level3_like (), 1, "0x1.4161851ebec16p-1", 1817,
        "7a77e8a0871be84826aa002f0f4cf709");
      ("level3", Topology.level3_like (), 2, "0x1.ec0c2fc9696bfp-1", 4396,
        "54f3b85440545a59d0585f6f6b2957bf");
      ("sbc", Topology.sbc_like (), 1, "0x1.5a92a8f18cc9cp-1", 2021,
        "c2a4f3b7adf784c5a5c686cb2a9af030");
    ]

(* Golden bits of a cold solve at m ~ 6k rows, where refactorization
   and phase 1 dominate: the benchmark's sweep-r3-pop36 set-up plan over
   the OSPF base. pop36 with unit weights, gravity seed 1002 at load 0.4
   scaled to OSPF MLU 0.3, structured k=2 with one SRLG per
   bidirectional pair, default pivot budget. *)
let test_golden_pop36_structured () =
  let g =
    Topology.random ~seed:36 ~nodes:36 ~undirected_links:80
      ~capacities:[ (10.0, 0.5); (40.0, 0.3); (100.0, 0.2) ]
      ()
  in
  let weights = R3_net.Ospf.unit_weights g in
  let tm = Traffic.gravity (R3_util.Prng.create 1002) g ~load_factor:0.4 () in
  let pairs, demands = Traffic.commodities tm in
  let r = R3_net.Ospf.routing g ~weights ~pairs () in
  let tm = Traffic.scale tm (0.3 /. Routing.mlu g ~loads:(Routing.loads g ~demands r)) in
  let pairs, _ = Traffic.commodities tm in
  let base = R3_net.Ospf.routing g ~weights ~pairs () in
  let cfg = { (Offline.default_config ~f:2) with solve_method = Offline.Constraint_gen } in
  let groups = { R3_core.Structured.srlgs = R3_core.Structured.physical_srlgs g; mlgs = []; k = 2 } in
  let p = plan_exn (R3_core.Structured.compute cfg g tm groups (Offline.Fixed base)) in
  Alcotest.(check string) "MLU* bits" "0x1.ef3efdb99ccd1p-1" (Printf.sprintf "%h" p.Offline.mlu);
  Alcotest.(check int) "pivots" 12103 p.Offline.lp_pivots;
  Alcotest.(check int) "rows" 6435 p.Offline.lp_rows;
  Alcotest.(check string) "protection bits" "4a7f1991c09ac18c795e135fe1669da0"
    (protection_md5 p.Offline.protection)

(* Golden bits of the joint base: plans whose LP routes the base [r] as
   unit flows beside [p]. Abilene with unit weights, gravity seed 7 at
   load 0.4 scaled to OSPF MLU 0.3, constraint generation at the default
   pivot budget unless noted. Each row pins MLU*, the pivot count and
   both routings' bits. *)
let test_golden_joint_plans () =
  let g = Topology.abilene () in
  let tm = Traffic.gravity (R3_util.Prng.create 7) g ~load_factor:0.4 () in
  let pairs, demands = Traffic.commodities tm in
  let r = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
  let tm = Traffic.scale tm (0.3 /. Routing.mlu g ~loads:(Routing.loads g ~demands r)) in
  let cg f = { (Offline.default_config ~f) with solve_method = Offline.Constraint_gen } in
  let square = Traffic.zeros 4 in
  square.(0).(2) <- 3.0;
  square.(1).(3) <- 2.0;
  List.iter
    (fun (what, plan, mlu, pivots, base_md5, md5) ->
      let p = plan_exn plan in
      Alcotest.(check string) (what ^ ": MLU* bits") mlu (Printf.sprintf "%h" p.Offline.mlu);
      Alcotest.(check int) (what ^ ": pivots") pivots p.Offline.lp_pivots;
      Alcotest.(check string) (what ^ ": base bits") base_md5 (protection_md5 p.Offline.base);
      Alcotest.(check string) (what ^ ": protection bits") md5
        (protection_md5 p.Offline.protection))
    [
      ("f=1", Offline.compute (cg 1) g tm Offline.Joint, "0x1.8ba3593f1f418p-1", 2794,
        "e51d79982f6fd89f65b4144b3189b2c5", "7d0b923a92fe6f599ece726f4204a891");
      ("multi f=2", Offline.compute_multi (cg 2) g [ tm; Traffic.scale tm 0.8 ] Offline.Joint,
        "0x1.45d1ac9f8fa08p+0", 4040,
        "1f204778bab257c414436e5c2531dd75", "88821380d5ede59c3738fa1fbb00c2b5");
      ("envelopes f=1",
        Offline.compute
          { (cg 1) with envelope = Some (1.5, 0.3); delay_envelope = Some 2.0 }
          g tm Offline.Joint,
        "0x1.8ba3593f1f418p-1", 2863,
        "24f709df719ca3674efa5f0e9654c931", "4373eba211b57a77123dd0115a1ad2b7");
      ("structured k=1",
        R3_core.Structured.compute (cg 1) g tm
          { R3_core.Structured.srlgs = R3_core.Structured.physical_srlgs g; mlgs = []; k = 1 }
          Offline.Joint,
        "0x1.8ba3593f1f416p-1", 2762,
        "89d2c24781b8609b0bfc5c519f275a51", "db80f5a47b1eacf60030b20a5042f35a");
      ("square dualized f=1",
        Offline.compute (Offline.default_config ~f:1) (Topology.square ()) square Offline.Joint,
        "0x1.333333333332fp-1", 306,
        "9a2552aca558f793884ac9554bab89f6", "53f683aba45c6f62396c17800ad91845");
    ]

(* The CLI's --domains parser: the pool's range, or auto. A count
   outside 1..64 is an error, not a silent clamp. *)
let test_domains_string () =
  List.iter
    (fun s ->
      match R3_util.Parallel.domains_of_string s with
      | Ok _ -> Alcotest.failf "%S accepted" s
      | Error msg ->
        Alcotest.(check string) s
          (Printf.sprintf "bad domain count %S (use an integer in 1..64 or auto)" s)
          msg)
    [ "0"; "-1"; "65"; "x" ];
  List.iter
    (fun (s, want) ->
      match R3_util.Parallel.domains_of_string s with
      | Ok d -> Alcotest.(check (option int)) s want d
      | Error msg -> Alcotest.failf "%S rejected: %s" s msg)
    [ ("1", Some 1); ("64", Some 64); ("auto", None) ]

let suite =
  [
    Alcotest.test_case "virtual demand membership" `Quick test_virtual_demand_membership;
    Alcotest.test_case "worst virtual load (knapsack)" `Quick test_worst_virtual_load;
    Alcotest.test_case "extreme points vs knapsack" `Quick test_extreme_points_vs_knapsack;
    Alcotest.test_case "paper example rescaling (Sec 3.3)" `Quick test_paper_example_rescaling;
    Alcotest.test_case "offline square f=1" `Quick test_offline_square_f1;
    Alcotest.test_case "CG = dualized (square)" `Quick test_cg_equals_dualized;
    Alcotest.test_case "CG = dualized (triangle f=2)" `Quick test_cg_equals_dualized_f2;
    Alcotest.test_case "theorem 1 (square, exhaustive)" `Quick test_theorem1_square;
    Alcotest.test_case "theorem 1 (abilene, fixed base)" `Slow test_theorem1_abilene_fixed_base;
    Alcotest.test_case "theorem 3 order independence" `Slow test_order_independence;
    Alcotest.test_case "proposition 1 (parallel links)" `Quick test_proposition1_parallel;
    Alcotest.test_case "proposition 1 (heterogeneous)" `Quick test_proposition1_heterogeneous;
    Alcotest.test_case "theorem 2 construction" `Quick test_theorem2_construction;
    Alcotest.test_case "penalty envelope" `Quick test_penalty_envelope;
    Alcotest.test_case "multi-TM convex hull" `Quick test_multi_tm;
    Alcotest.test_case "delay envelope" `Quick test_delay_envelope;
    Alcotest.test_case "delay envelope tightness" `Quick test_delay_envelope_tightness;
    Alcotest.test_case "parallel oracle deterministic" `Quick
      test_parallel_oracle_deterministic;
    Alcotest.test_case "CG = dualized (abilene, 16-node)" `Quick
      test_cg_equals_dualized_larger;
    QCheck_alcotest.to_alcotest theorem1_prop;
    QCheck_alcotest.to_alcotest order_independence_prop;
    Alcotest.test_case "fail order is canonical (abilene)" `Quick
      test_fail_out_of_order_canonical;
    Alcotest.test_case "weight columns match per-entry lookups" `Quick
      test_weight_columns;
    Alcotest.test_case "golden bits: table2 CG plans" `Quick test_golden_table2;
    Alcotest.test_case "golden bits: pop36 structured k=2 plan" `Quick
      test_golden_pop36_structured;
    Alcotest.test_case "golden bits: joint-base plans" `Quick test_golden_joint_plans;
    Alcotest.test_case "--domains accepts 1..64 or auto" `Quick test_domains_string;
    Alcotest.test_case "extreme points count without enumerating" `Quick
      test_extreme_points_limit;
  ]
