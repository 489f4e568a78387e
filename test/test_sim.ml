(* Tests for scenario generation, the evaluation engine, and the fluid
   simulator. *)

module G = R3_net.Graph
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Sc = R3_sim.Scenario
module S = R3_sim.Scenarios
module E = R3_sim.Eval
module F = R3_sim.Fluid

let test_physical_links () =
  let g = Topology.abilene () in
  let phys = S.physical_links g in
  Alcotest.(check int) "14 physical links" 14 (Array.length phys);
  (* the canonical scenario carries both directions *)
  let sc = Sc.of_links g [ phys.(0) ] in
  Alcotest.(check int) "one physical link" 1 (Sc.size sc);
  Alcotest.(check int) "expanded" 2 (List.length (Sc.links sc))

let test_all_k_counts () =
  let g = Topology.abilene () in
  Alcotest.(check int) "single failures" 14 (List.length (S.enumerate g ~k:1));
  Alcotest.(check int) "pairs" (14 * 13 / 2) (List.length (S.enumerate g ~k:2))

let test_negative_k_rejected () =
  let g = Topology.abilene () in
  Alcotest.check_raises "enumerate" (Invalid_argument "Scenarios.enumerate: k < 0")
    (fun () -> ignore (S.enumerate g ~k:(-1)));
  Alcotest.check_raises "sample" (Invalid_argument "Scenarios.sample: k < 0")
    (fun () -> ignore (S.sample g ~k:(-1) ~count:5 ~seed:1))

let test_sample_distinct () =
  let g = Topology.uunet_like () in
  let samples = S.sample g ~k:3 ~count:100 ~seed:5 in
  Alcotest.(check int) "count" 100 (List.length samples);
  Alcotest.(check int) "distinct" 100
    (List.length (List.sort_uniq Sc.compare samples))

(* Regressions for Scenarios.sample's documented contract; the fuzzer's
   scenario-sampling oracle checks the same properties on random cases. *)
let test_sample_exceeds_total () =
  let g = Topology.abilene () in
  (* Only 14 single-link scenarios exist; asking for more returns the
     whole space, never duplicates or a hang. *)
  let s = S.sample g ~k:1 ~count:100 ~seed:3 in
  Alcotest.(check int) "whole space returned" 14 (List.length s);
  Alcotest.(check int) "distinct" 14 (List.length (List.sort_uniq Sc.compare s))

let test_sample_deterministic () =
  let g = Topology.uunet_like () in
  let a = S.sample g ~k:2 ~count:40 ~seed:9 in
  let b = S.sample g ~k:2 ~count:40 ~seed:9 in
  Alcotest.(check int) "same length" (List.length a) (List.length b);
  Alcotest.(check bool) "same seed, same scenarios" true
    (List.for_all2 (fun x y -> Sc.compare x y = 0) a b)

let test_sample_rejection_path_exact () =
  (* abilene: C(14,2) = 91 pair scenarios; count = 60 sits above the
     1.5x enumeration threshold, so rejection sampling runs. The fixed
     guard (100x count draws) must deliver exactly 60 distinct scenarios
     and record no shortfall. *)
  let before =
    R3_util.Metrics.counter_value "sim.scenarios.sample_shortfall"
  in
  let g = Topology.abilene () in
  let s = S.sample g ~k:2 ~count:60 ~seed:21 in
  let after =
    R3_util.Metrics.counter_value "sim.scenarios.sample_shortfall"
  in
  Alcotest.(check int) "exact count" 60 (List.length s);
  Alcotest.(check int) "distinct" 60 (List.length (List.sort_uniq Sc.compare s));
  Alcotest.(check int) "no shortfall recorded" before after

let test_sample_generated_fast () =
  (* Anti-hang regression: C(230, 5) on the generated backbone used to
     be computed with an unmemoized Pascal recursion — minutes of
     additions before the first draw. The multiplicative binom is O(k). *)
  let g = Topology.generated () in
  let s = S.sample g ~k:5 ~count:50 ~seed:17 in
  Alcotest.(check int) "50 scenarios" 50 (List.length s);
  List.iter (fun sc -> Alcotest.(check int) "size 5" 5 (Sc.size sc)) s

let test_connected_only () =
  let g = Topology.abilene () in
  let all = S.enumerate g ~k:2 in
  let conn = S.connected g all in
  (* Cutting both Seattle links partitions, so some scenarios are dropped. *)
  Alcotest.(check bool) "some dropped" true (List.length conn < List.length all);
  Alcotest.(check bool) "most kept" true (List.length conn > List.length all / 2)

let make_env () =
  let g = Topology.usisp_like () in
  let rng = R3_util.Prng.create 51 in
  let tm = Traffic.gravity rng g ~load_factor:0.35 () in
  let pairs, demands = Traffic.commodities tm in
  let weights = R3_net.Ospf.unit_weights g in
  let base = R3_net.Ospf.routing g ~weights ~pairs () in
  (* f = 1 keeps the CG solve fast; the engine properties under test do
     not depend on the protection level. *)
  let cfg =
    { (R3_core.Offline.default_config ~f:1) with
      solve_method = R3_core.Offline.Constraint_gen }
  in
  let plan =
    match R3_core.Offline.compute cfg g tm (R3_core.Offline.Fixed base) with
    | Ok p -> p
    | Error m -> Alcotest.failf "plan: %s" m
  in
  (g, E.make_env g ~weights ~pairs ~demands ~ospf_r3:plan ())

let test_eval_algorithms_run () =
  let g, env = make_env () in
  let scenario = Sc.of_links g [ (S.physical_links g).(2) ] in
  List.iter
    (fun alg ->
      match alg with
      | E.Mplsff_r3 -> () (* no plan provided in this env *)
      | _ ->
        let r = E.evaluate ~with_optimal:false env alg scenario in
        if not (r.E.bottleneck >= 0.0) then
          Alcotest.failf "%s returned %g" (E.algorithm_name alg) r.E.bottleneck;
        if not (r.E.delivered >= 0.0 && r.E.delivered <= 1.0 +. 1e-9) then
          Alcotest.failf "%s delivered %g" (E.algorithm_name alg) r.E.delivered)
    E.all_algorithms

let test_eval_r3_close_to_opt () =
  (* R3's reconfigured MLU is never better than the per-scenario optimal
     link detour on the same base (both are link-based protections on the
     OSPF base), and the ratio should be modest. *)
  let g, env = make_env () in
  let scenarios = List.filteri (fun i _ -> i mod 4 = 0) (S.enumerate g ~k:1) in
  List.iter
    (fun scenario ->
      let opt = E.scenario_bottleneck env E.Ospf_opt scenario in
      let r3 = E.scenario_bottleneck env E.Ospf_r3 scenario in
      if r3 < opt -. 1e-6 then
        Alcotest.failf "R3 %.4f beat opt %.4f (impossible)" r3 opt)
    scenarios

let test_optimal_lower_bounds_everything () =
  let g, env = make_env () in
  let scenario = Sc.of_links g [ (S.physical_links g).(4) ] in
  let opt = E.optimal env scenario in
  List.iter
    (fun alg ->
      match alg with
      | E.Mplsff_r3 -> ()
      | _ ->
        let r = E.evaluate env alg scenario in
        (* the MCF normalizer is approximate: allow its epsilon *)
        if r.E.bottleneck < opt /. 1.15 -. 1e-6 then
          Alcotest.failf "%s %.4f below optimal %.4f" (E.algorithm_name alg)
            r.E.bottleneck opt;
        (match r.E.ratio with
        | Some rr ->
          if not (rr > 0.0) then
            Alcotest.failf "%s ratio %g" (E.algorithm_name alg) rr
        | None -> Alcotest.failf "%s ratio undefined" (E.algorithm_name alg)))
    E.all_algorithms

let test_fluid_r3_run () =
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 61 in
  let tm = Traffic.gravity rng g ~load_factor:0.25 () in
  let pairs, demands = Traffic.commodities tm in
  let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
  let cfg =
    { (R3_core.Offline.default_config ~f:2) with
      solve_method = R3_core.Offline.Constraint_gen }
  in
  let plan =
    match R3_core.Offline.compute cfg g tm (R3_core.Offline.Fixed base) with
    | Ok p -> p
    | Error m -> Alcotest.failf "plan: %s" m
  in
  let id n = G.node_id g n in
  (* The paper's sequence ends with Sunnyvale-Denver, which sits on the
     Denver->LosAngeles probe path and steps its RTT up (Figure 12). *)
  let events =
    [
      { F.at_s = 60.0; fail = Option.get (G.find_link g (id "Houston") (id "KansasCity")) };
      { F.at_s = 120.0; fail = Option.get (G.find_link g (id "Sunnyvale") (id "Denver")) };
    ]
  in
  let config = { F.default_config with F.duration_s = 180.0; dt_s = 2.0 } in
  let run = F.run ~config g ~pairs ~demands ~scheme:(F.R3_plan plan) ~events () in
  Alcotest.(check int) "steps" 90 (List.length run.F.steps);
  (* RTT of the probe pair steps up once its path is hit. *)
  let rtt = F.rtt_series run ~src:(id "Denver") ~dst:(id "LosAngeles") in
  Alcotest.(check bool) "rtt series nonempty" true (List.length rtt > 0);
  let early = List.filter (fun (t, _) -> t < 50.0) rtt in
  let late = List.filter (fun (t, _) -> t > 130.0) rtt in
  let avg l = List.fold_left (fun a (_, v) -> a +. v) 0.0 l /. float_of_int (List.length l) in
  Alcotest.(check bool)
    (Printf.sprintf "rtt increases after on-path failure (%.2f -> %.2f)" (avg early) (avg late))
    true
    (avg late > avg early +. 0.5);
  (* Utilization stays bounded under R3 with mlu<=1 plan. *)
  let phases = F.utilization_by_phase run ~events in
  Alcotest.(check int) "three phases" 3 (List.length phases);
  List.iter
    (fun utils ->
      Array.iter
        (fun u ->
          if u > 1.3 (* plan mlu may exceed 1 slightly with bursts *) then
            Alcotest.failf "excessive utilization %.3f" u)
        utils)
    phases

let test_fluid_ospf_blackholes_then_recovers () =
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 62 in
  let tm = Traffic.gravity rng g ~load_factor:0.25 () in
  let pairs, demands = Traffic.commodities tm in
  let id n = G.node_id g n in
  let events =
    [ { F.at_s = 30.0; fail = Option.get (G.find_link g (id "Denver") (id "KansasCity")) } ]
  in
  let config = { F.default_config with F.duration_s = 90.0; dt_s = 1.0; burstiness = 0.0 } in
  let scheme = F.Ospf { weights = R3_net.Ospf.unit_weights g; reconvergence_s = 5.0 } in
  let run = F.run ~config g ~pairs ~demands ~scheme ~events () in
  let deliv t =
    let s = List.find (fun s -> s.F.time_s = t) run.F.steps in
    Array.fold_left ( +. ) 0.0 s.F.delivered
  in
  let before = deliv 29.0 and during = deliv 32.0 and after = deliv 60.0 in
  Alcotest.(check bool)
    (Printf.sprintf "blackhole dip (%.1f -> %.1f -> %.1f)" before during after)
    true
    (during < before && after > during)

let suite =
  [
    Alcotest.test_case "physical links" `Quick test_physical_links;
    Alcotest.test_case "all_k counts" `Quick test_all_k_counts;
    Alcotest.test_case "negative k rejected" `Quick test_negative_k_rejected;
    Alcotest.test_case "sampling distinct" `Quick test_sample_distinct;
    Alcotest.test_case "sampling caps at the space" `Quick
      test_sample_exceeds_total;
    Alcotest.test_case "sampling deterministic" `Quick test_sample_deterministic;
    Alcotest.test_case "sampling rejection path exact" `Quick
      test_sample_rejection_path_exact;
    Alcotest.test_case "sampling on generated backbone" `Quick
      test_sample_generated_fast;
    Alcotest.test_case "connected_only filter" `Quick test_connected_only;
    Alcotest.test_case "all algorithms run" `Slow test_eval_algorithms_run;
    Alcotest.test_case "R3 never beats opt detour" `Slow test_eval_r3_close_to_opt;
    Alcotest.test_case "optimal lower-bounds all" `Slow test_optimal_lower_bounds_everything;
    Alcotest.test_case "fluid run under R3" `Slow test_fluid_r3_run;
    Alcotest.test_case "fluid OSPF blackhole dip" `Quick test_fluid_ospf_blackholes_then_recovers;
  ]
