(* Tests for the Section 3.5 extensions: prioritized classes (19) and
   structured SRLG/MLG failures (18). *)

module G = R3_net.Graph
module Traffic = R3_net.Traffic
module Topology = R3_net.Topology
module Offline = R3_core.Offline
module Priority = R3_core.Priority
module Structured = R3_core.Structured
module Vd = R3_core.Virtual_demand

let cg_cfg f =
  { (Offline.default_config ~f) with solve_method = Offline.Constraint_gen }

(* ---- structured oracle ---- *)

let test_structured_oracle_vs_knapsack () =
  (* With one singleton SRLG per link and k = f, (18) degenerates to X_f:
     the structured oracle must equal the knapsack closed form. *)
  let m = 10 in
  let rng = R3_util.Prng.create 3 in
  let weights = Array.init m (fun _ -> R3_util.Prng.float rng 5.0) in
  let groups =
    { Structured.srlgs = List.init m (fun l -> [ l ]); mlgs = []; k = 3 }
  in
  let v_struct, y = Structured.worst_structured_load groups weights in
  let v_knap = Vd.worst_virtual_load ~f:3 weights in
  Alcotest.(check (float 1e-6)) "oracle = knapsack" v_knap v_struct;
  (* intensities recompute the value *)
  let v_y = Array.fold_left ( +. ) 0.0 (Array.mapi (fun l yl -> yl *. weights.(l)) y) in
  Alcotest.(check (float 1e-6)) "y recomputes value" v_struct v_y

let test_structured_oracle_disjoint_pairs () =
  (* Pairs {0,1} {2,3} {4,5}, k=2: best two pair-sums. Exercises the greedy
     fast path; the LP path is checked against it via an overlapping dummy
     MLG that changes nothing. *)
  let weights = [| 5.0; 1.0; 2.0; 2.5; 3.0; 0.5 |] in
  let srlgs = [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ] ] in
  let fast, _ = Structured.worst_structured_load { Structured.srlgs; mlgs = []; k = 2 } weights in
  Alcotest.(check (float 1e-6)) "greedy best two pairs" 10.5 fast;
  (* LP path: add an MLG that is worthless, forcing the general solver. *)
  let lp_val, _ =
    Structured.worst_structured_load
      { Structured.srlgs; mlgs = [ [ 0 ] ]; k = 2 }
      weights
  in
  (* The MLG adds the option of taking link 0 alone (value 5) on top of two
     SRLGs: best = {0,1} + {4,5} + MLG{0} but y_0 caps at 1, so the MLG
     should add nothing beyond 9.5 here... except it can enable a third
     group: SRLGs {0,1},{4,5} plus MLG covering 0 is redundant; but SRLGs
     {2,3},{4,5} plus MLG {0} = 2+2.5+3+0.5+5 = 13? No: k=2 limits SRLGs
     to two, MLG is separate, so {0,1}+{4,5} (9.5) vs {2,3}+{4,5}+MLG{0}
     = 8 + 5 = 13 -> 13 wins. *)
  Alcotest.(check (float 1e-5)) "LP path uses the MLG" 13.0 lp_val

let test_structured_mlg_budget () =
  (* Only MLGs: at most ONE may be down. *)
  let weights = [| 4.0; 3.0; 2.0 |] in
  let groups = { Structured.srlgs = []; mlgs = [ [ 0 ]; [ 1 ]; [ 2 ] ]; k = 5 } in
  let v, _ = Structured.worst_structured_load groups weights in
  Alcotest.(check (float 1e-6)) "single MLG" 4.0 v

let test_structured_uncovered_links_carry_nothing () =
  let weights = [| 10.0; 10.0 |] in
  let groups = { Structured.srlgs = [ [ 0 ] ]; mlgs = []; k = 2 } in
  let v, y = Structured.worst_structured_load groups weights in
  Alcotest.(check (float 1e-6)) "only covered link counts" 10.0 v;
  Alcotest.(check (float 1e-6)) "uncovered intensity 0" 0.0 y.(1)

let test_structured_compute_and_audit () =
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 17 in
  let tm = Traffic.gravity rng g ~load_factor:0.2 () in
  let pairs, _ = Traffic.commodities tm in
  let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
  let groups = { Structured.srlgs = Structured.physical_srlgs g; mlgs = []; k = 1 } in
  match Structured.compute (cg_cfg 1) g tm groups (Offline.Fixed base) with
  | Error m -> Alcotest.fail m
  | Ok plan ->
    (* The plan's MLU matches the independent audit. *)
    let audited = Structured.audit_mlu plan groups in
    Alcotest.(check bool)
      (Printf.sprintf "audit %.4f ~ lp %.4f" audited plan.Offline.mlu)
      true
      (Float.abs (audited -. plan.Offline.mlu) <= 1e-4 *. (1.0 +. plan.Offline.mlu));
    (* Congestion-free for every single physical failure when MLU <= 1. *)
    if plan.Offline.mlu <= 1.0 then
      List.iter
        (fun grp ->
          let u = R3_core.Verify.scenario_mlu plan grp in
          if u > 1.0 +. 1e-5 then
            Alcotest.failf "physical failure of [%s] gives MLU %.4f"
              (String.concat ";" (List.map string_of_int grp))
              u)
        groups.Structured.srlgs

let test_structured_cheaper_than_arbitrary () =
  (* Protecting one physical failure must not cost more than protecting two
     arbitrary directed failures (the envelope is a subset). *)
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 19 in
  let tm = Traffic.gravity rng g ~load_factor:0.2 () in
  let pairs, _ = Traffic.commodities tm in
  let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
  let groups = { Structured.srlgs = Structured.physical_srlgs g; mlgs = []; k = 1 } in
  let structured =
    match Structured.compute (cg_cfg 1) g tm groups (Offline.Fixed base) with
    | Ok p -> p.Offline.mlu
    | Error m -> Alcotest.fail m
  in
  let arbitrary =
    match Offline.compute (cg_cfg 2) g tm (Offline.Fixed base) with
    | Ok p -> p.Offline.mlu
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool)
    (Printf.sprintf "structured %.3f <= arbitrary %.3f" structured arbitrary)
    true
    (structured <= arbitrary +. 1e-5)

(* ---- prioritized classes ---- *)

let priority_fixture () =
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 23 in
  let total = Traffic.gravity rng g ~load_factor:0.25 () in
  let t1, t2, t3 = Traffic.split3 rng total ~p1:0.2 ~p2:0.3 in
  let d1 = Traffic.add (Traffic.add t1 t2) t3 in
  let d2 = Traffic.add t1 t2 in
  let d3 = t1 in
  let pairs, _ = Traffic.commodities d1 in
  let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
  (g, d1, d2, d3, base)

let test_priority_class_ordering () =
  let g, d1, d2, d3, base = priority_fixture () in
  let srlgs = Structured.physical_srlgs g in
  let classes =
    [
      { Priority.demand = d1; f = 1 };
      { Priority.demand = d2; f = 2 };
      { Priority.demand = d3; f = 3 };
    ]
  in
  match Priority.compute (cg_cfg 1) g ~srlgs ~classes (Offline.Fixed base) with
  | Error m -> Alcotest.fail m
  | Ok { Priority.plan; class_mlus } ->
    Alcotest.(check int) "three class MLUs" 3 (Array.length class_mlus);
    (* The LP objective is the max of the class MLUs. *)
    let max_mlu = Array.fold_left Float.max 0.0 class_mlus in
    Alcotest.(check bool)
      (Printf.sprintf "plan mlu %.4f ~ max class mlu %.4f" plan.Offline.mlu max_mlu)
      true
      (Float.abs (plan.Offline.mlu -. max_mlu) <= 1e-4 *. (1.0 +. max_mlu));
    (* Audit is self-consistent. *)
    let audit = Priority.audit_class_mlus ~srlgs ~classes plan in
    Array.iteri
      (fun i v ->
        if Float.abs (v -. class_mlus.(i)) > 1e-9 then
          Alcotest.failf "audit mismatch for class %d" i)
      audit

let test_priority_beats_general_for_top_class () =
  (* The prioritized plan's top class (small demand, big budget) must have
     worst-case MLU no larger than what the general single-budget plan
     gives that same class under the same budget. *)
  let g, d1, d2, d3, base = priority_fixture () in
  let srlgs = Structured.physical_srlgs g in
  let classes =
    [
      { Priority.demand = d1; f = 1 };
      { Priority.demand = d2; f = 2 };
      { Priority.demand = d3; f = 3 };
    ]
  in
  let prio =
    match Priority.compute (cg_cfg 1) g ~srlgs ~classes (Offline.Fixed base) with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let general =
    match
      Structured.compute (cg_cfg 1) g d1
        { Structured.srlgs; mlgs = []; k = 1 }
        (Offline.Fixed base)
    with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let top_class = [ { Priority.demand = d3; f = 3 } ] in
  let prio_top = (Priority.audit_class_mlus ~srlgs ~classes:top_class prio.Priority.plan).(0) in
  let gen_top = (Priority.audit_class_mlus ~srlgs ~classes:top_class general).(0) in
  Alcotest.(check bool)
    (Printf.sprintf "prioritized top class %.4f <= general %.4f" prio_top gen_top)
    true
    (prio_top <= gen_top +. 1e-6)

let test_priority_reduces_to_offline () =
  (* One class = plain offline computation; optima must agree. *)
  let g, d1, _, _, base = priority_fixture () in
  let classes = [ { Priority.demand = d1; f = 1 } ] in
  let prio =
    match Priority.compute (cg_cfg 1) g ~classes (Offline.Fixed base) with
    | Ok p -> p.Priority.plan.Offline.mlu
    | Error m -> Alcotest.fail m
  in
  let plain =
    match Offline.compute (cg_cfg 1) g d1 (Offline.Fixed base) with
    | Ok p -> p.Offline.mlu
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check (float 1e-4)) "single class = offline" plain prio

(* The penalty and delay envelopes of Section 3.5 bound the no-failure
   routing of every class, as they bound Offline's. *)
let envelope_fixture () =
  let g =
    Topology.random ~seed:5 ~nodes:8 ~undirected_links:14 ~capacities:[ (10.0, 1.0) ] ()
  in
  (g, Traffic.gravity (R3_util.Prng.create 7) g ~load_factor:0.2 ())

let priority_plan cfg g classes base =
  match Priority.compute cfg g ~classes base with
  | Ok p -> p.Priority.plan
  | Error m -> Alcotest.fail m

let test_priority_penalty_envelope () =
  let g, tm = envelope_fixture () in
  let mlu_opt =
    match Offline.compute (Offline.default_config ~f:0) g tm Offline.Joint with
    | Ok p -> p.Offline.mlu
    | Error m -> Alcotest.fail m
  in
  let beta = 1.0 in
  let cfg = { (cg_cfg 1) with envelope = Some (beta, mlu_opt) } in
  let plan = priority_plan cfg g [ { Priority.demand = tm; f = 1 } ] Offline.Joint in
  let normal =
    R3_net.Routing.mlu g
      ~loads:(R3_net.Routing.loads g ~demands:plan.Offline.demands plan.Offline.base)
  in
  Alcotest.(check bool)
    (Printf.sprintf "no-failure MLU %.4f within beta * opt %.4f" normal (beta *. mlu_opt))
    true
    (normal <= beta *. mlu_opt *. (1.0 +. 1e-6))

let test_priority_delay_envelope () =
  let g, tm = envelope_fixture () in
  let gamma = 1.2 in
  let cfg = { (cg_cfg 1) with delay_envelope = Some gamma } in
  let plan = priority_plan cfg g [ { Priority.demand = tm; f = 1 } ] Offline.Joint in
  Array.iteri
    (fun k (a, b) ->
      let best = R3_net.Spf.min_propagation_delay g ~src:a ~dst:b () in
      let actual = R3_net.Routing.mean_delay g plan.Offline.base k in
      if actual > (gamma *. best) +. 1e-6 then
        Alcotest.failf "pair %d->%d: delay %.3f exceeds %.1f x %.3f" a b actual gamma best)
    plan.Offline.pairs

(* With no cut rounds left, every CG entry point returns the plan of its
   first LP solve with the audited worst case as its MLU - exactly the
   audit, bit for bit, and never below the converged MLU* - and counts
   the exhausted budget. *)
let test_cut_budget_exhausted () =
  let g = Topology.abilene () in
  let tm = Traffic.gravity (R3_util.Prng.create 17) g ~load_factor:0.2 () in
  let pairs, _ = Traffic.commodities tm in
  let base = Offline.Fixed (R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs ()) in
  let groups = { Structured.srlgs = Structured.physical_srlgs g; mlgs = []; k = 1 } in
  let classes = [ { Priority.demand = tm; f = 1 }; { Priority.demand = Traffic.scale tm 0.5; f = 2 } ] in
  let srlgs = groups.Structured.srlgs in
  let solve cfg =
    let ok = function Ok p -> p | Error m -> Alcotest.fail m in
    ( ok (Offline.compute cfg g tm base),
      ok (Structured.compute cfg g tm groups base),
      ok (Priority.compute cfg g ~srlgs ~classes base) )
  in
  let c_links, c_structured, c_prio = solve (cg_cfg 1) in
  let counter () = R3_util.Metrics.counter_value "offline.cg.budget_exhausted" in
  let before = counter () in
  let links, structured, prio = solve { (cg_cfg 1) with cg_max_rounds = 0 } in
  Alcotest.(check int) "one count per audited return" 3 (counter () - before);
  let base_loads (p : Offline.plan) =
    R3_net.Routing.loads g ~demands:p.Offline.demands p.Offline.base
  in
  List.iter
    (fun (what, (p : Offline.plan), audit, (conv : Offline.plan)) ->
      Alcotest.(check int64) (what ^ ": mlu is the audit") (Int64.bits_of_float audit)
        (Int64.bits_of_float p.Offline.mlu);
      Alcotest.(check bool)
        (Printf.sprintf "%s: audited %.6f >= converged %.6f" what p.Offline.mlu
           conv.Offline.mlu)
        true
        (p.Offline.mlu >= conv.Offline.mlu))
    [
      ( "X_F",
        links,
        R3_core.Verify.offline_worst_mlu g ~f:1 ~base_loads:(base_loads links)
          ~protection:links.Offline.protection,
        c_links );
      ("structured", structured, Structured.audit_mlu structured groups, c_structured);
      ( "priority",
        prio.Priority.plan,
        Array.fold_left Float.max 0.0
          (Priority.audit_class_mlus ~srlgs ~classes prio.Priority.plan),
        c_prio.Priority.plan );
    ]

(* The helper is the construction every caller used to spell out: one
   group per [Scenarios.physical_links] entry, [[e; reverse e]]. *)
let test_physical_srlgs () =
  let pop36 =
    Topology.random ~seed:36 ~nodes:36 ~undirected_links:80
      ~capacities:[ (10.0, 0.5); (40.0, 0.3); (100.0, 0.2) ]
      ()
  in
  List.iter
    (fun (name, g) ->
      let expected =
        Array.to_list (R3_sim.Scenarios.physical_links g)
        |> List.map (fun e -> match G.reverse_link g e with Some r -> [ e; r ] | None -> [ e ])
      in
      Alcotest.(check (list (list int))) name expected (Structured.physical_srlgs g))
    [ ("abilene", Topology.abilene ()); ("pop36", pop36) ]

(* Structured oracle as a property: the LP value always dominates any
   feasible integral selection of groups. *)
let structured_dominance_prop =
  QCheck.Test.make ~count:60 ~name:"structured oracle dominates integral picks"
    QCheck.(pair (int_bound 10_000) (int_range 1 3))
    (fun (seed, k) ->
      let rng = R3_util.Prng.create seed in
      let m = 8 in
      let weights = Array.init m (fun _ -> R3_util.Prng.float rng 4.0) in
      let ngroups = 2 + R3_util.Prng.int rng 3 in
      let srlgs =
        List.init ngroups (fun _ ->
            let size = 1 + R3_util.Prng.int rng 3 in
            List.init size (fun _ -> R3_util.Prng.int rng m)
            |> List.sort_uniq Int.compare)
      in
      let groups = { Structured.srlgs; mlgs = []; k } in
      let lp_val, _ = Structured.worst_structured_load groups weights in
      (* any k groups chosen integrally *)
      let rec choose acc rest n =
        if n = 0 then [ acc ]
        else
          match rest with
          | [] -> [ acc ]
          | g :: tl -> choose (g @ acc) tl (n - 1) @ choose acc tl n
      in
      let best_integral =
        choose [] srlgs k
        |> List.map (fun links ->
               List.sort_uniq Int.compare links
               |> List.fold_left (fun a l -> a +. weights.(l)) 0.0)
        |> List.fold_left Float.max 0.0
      in
      lp_val >= best_integral -. 1e-6)

(* Golden bits of the structured oracle's LP ([Virtual_demand]'s path
   for overlapping SRLGs or any MLG), which no plan golden reaches with
   bits that move. Seeded envelopes on Abilene and the US-ISP stand-in,
   k = 1-3, half of them with MLGs, under random weights with some
   zeros: one digest over each case's value and support, in [%h], and
   its pivot count. The optima are mostly integral, so their bits
   survive a change of pivot path; the count does not. Every case must
   reach the LP, so [lp.solves] has to move. *)
let test_golden_group_lp () =
  let solves () = R3_util.Metrics.counter_value "lp.solves" in
  let pivots () = R3_util.Metrics.counter_value "lp.pivots" in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (tag, g) ->
      let m = G.num_links g in
      for k = 1 to 3 do
        for seed = 1 to 4 do
          let srlgs = Topology.synthetic_srlgs ~seed g ~count:(3 + (2 * k)) in
          let mlgs = if seed mod 2 = 0 then Topology.synthetic_mlgs ~seed g ~count:3 else [] in
          let rng = R3_util.Prng.create ((100 * k) + seed) in
          let weights =
            Array.init m (fun _ ->
                if R3_util.Prng.int rng 4 = 0 then 0.0 else R3_util.Prng.float rng 5.0)
          in
          let before = solves () and pivots0 = pivots () in
          let value, support = Vd.worst_load (Vd.Groups { srlgs; mlgs; k }) weights in
          if solves () = before then
            Alcotest.failf "%s k=%d seed %d: the oracle solved no LP" tag k seed;
          Buffer.add_string buf (Printf.sprintf "%h" value);
          List.iter (fun (l, y) -> Buffer.add_string buf (Printf.sprintf " %d:%h" l y)) support;
          Buffer.add_string buf (Printf.sprintf " pivots %d\n" (pivots () - pivots0))
        done
      done)
    [ ("abilene", Topology.abilene ()); ("usisp", Topology.usisp_like ()) ];
  Alcotest.(check string) "values, supports and pivots" "6d1e9433f053ae8f1d39ea38373f6799"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    Alcotest.test_case "structured oracle = knapsack (singletons)" `Quick
      test_structured_oracle_vs_knapsack;
    Alcotest.test_case "golden bits: structured oracle LP" `Quick test_golden_group_lp;
    Alcotest.test_case "structured oracle disjoint pairs + MLG" `Quick
      test_structured_oracle_disjoint_pairs;
    Alcotest.test_case "MLG budget is one" `Quick test_structured_mlg_budget;
    Alcotest.test_case "uncovered links carry nothing" `Quick
      test_structured_uncovered_links_carry_nothing;
    Alcotest.test_case "structured compute + audit (abilene)" `Slow
      test_structured_compute_and_audit;
    Alcotest.test_case "structured cheaper than arbitrary" `Slow
      test_structured_cheaper_than_arbitrary;
    Alcotest.test_case "priority class ordering + audit" `Slow test_priority_class_ordering;
    Alcotest.test_case "priority beats general for top class" `Slow
      test_priority_beats_general_for_top_class;
    Alcotest.test_case "single priority class = offline" `Slow test_priority_reduces_to_offline;
    QCheck_alcotest.to_alcotest structured_dominance_prop;
    Alcotest.test_case "priority honours the penalty envelope" `Quick
      test_priority_penalty_envelope;
    Alcotest.test_case "priority honours the delay envelope" `Quick
      test_priority_delay_envelope;
    Alcotest.test_case "cut budget exhausted: audited MLU" `Slow test_cut_budget_exhausted;
    Alcotest.test_case "physical SRLGs = physical links" `Quick test_physical_srlgs;
  ]
