(* The sweep engine's contract: bit-identical to the naive per-scenario
   path, for any domain count and either metric. *)

module G = R3_net.Graph
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Sc = R3_sim.Scenario
module S = R3_sim.Scenarios
module E = R3_sim.Eval
module Sweep = R3_sim.Sweep

let abilene_env ?(demands_scale = 1.0) () =
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 77 in
  let tm = Traffic.gravity rng g ~load_factor:0.3 () in
  let pairs, demands = Traffic.commodities tm in
  let demands = Array.map (fun d -> d *. demands_scale) demands in
  let weights = R3_net.Ospf.unit_weights g in
  let base = R3_net.Ospf.routing g ~weights ~pairs () in
  let cfg =
    { (R3_core.Offline.default_config ~f:2) with
      solve_method = R3_core.Offline.Constraint_gen }
  in
  let srlgs = R3_core.Structured.physical_srlgs g in
  let plan =
    match
      R3_core.Structured.compute cfg g tm
        { R3_core.Structured.srlgs; mlgs = []; k = 2 }
        (R3_core.Offline.Fixed base)
    with
    | Ok p -> p
    | Error m -> Alcotest.failf "plan: %s" m
  in
  (g, E.make_env g ~weights ~pairs ~demands ~ospf_r3:plan ())

let env = lazy (abilene_env ())

(* The naive reference: one pristine-plan rebuild per (algorithm, scenario),
   computed through the single-scenario API. *)
let naive_curves env ~algorithms ~metric scenarios =
  let values = List.map (fun _ -> ref []) algorithms in
  List.iter
    (fun sc ->
      let opt = match metric with `Ratio -> E.optimal env sc | `Bottleneck -> 1.0 in
      List.iter2
        (fun alg acc ->
          let v = E.scenario_bottleneck env alg sc in
          let v = match metric with `Ratio -> if opt > 0.0 then v /. opt else nan | `Bottleneck -> v in
          if not (Float.is_nan v) then acc := v :: !acc)
        algorithms values)
    scenarios;
  values
  |> List.map (fun acc ->
         let a = Array.of_list !acc in
         Array.sort Float.compare a;
         a)
  |> Array.of_list

let check_bits name (a : float array array) (b : float array array) =
  Alcotest.(check int) (name ^ " series") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      let y = b.(i) in
      Alcotest.(check int) (Printf.sprintf "%s[%d] length" name i) (Array.length x)
        (Array.length y);
      Array.iteri
        (fun j u ->
          if not (Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float y.(j)))
          then Alcotest.failf "%s[%d][%d]: %h <> %h" name i j u y.(j))
        x)
    a

let r3_algorithms = E.[ Ospf_r3; Ospf_cspf_detour ]

let test_bottleneck_identity_k12 () =
  let g, env = Lazy.force env in
  List.iter
    (fun k ->
      let scenarios = S.enumerate g ~k in
      let fast =
        Test_pool.with_domains 1 (fun () ->
            Sweep.curves ~metric:`Bottleneck env ~algorithms:r3_algorithms scenarios)
      in
      let slow = naive_curves env ~algorithms:r3_algorithms ~metric:`Bottleneck scenarios in
      check_bits (Printf.sprintf "k=%d bottleneck" k) slow fast)
    [ 1; 2 ]

(* Ratio sweeps solve the exact normalizer inside pool workers. *)
let test_ratio_identity_sampled_k3 () =
  let g, env = Lazy.force env in
  let scenarios = S.sample g ~k:3 ~count:6 ~seed:9 in
  let slow = naive_curves env ~algorithms:r3_algorithms ~metric:`Ratio scenarios in
  List.iter
    (fun d ->
      let fast =
        Test_pool.with_domains d (fun () ->
            Sweep.curves env ~algorithms:r3_algorithms scenarios)
      in
      check_bits (Printf.sprintf "sampled k=3 ratio, %d domains" d) slow fast)
    [ 1; 2; 4 ]

let test_domains_agree () =
  let g, env = Lazy.force env in
  let scenarios = S.enumerate g ~k:1 @ S.enumerate g ~k:2 in
  let run d =
    Test_pool.with_domains d (fun () ->
        Sweep.run ~metric:`Bottleneck env ~algorithms:r3_algorithms scenarios)
  in
  let one = run 1 in
  let check_against label many =
    check_bits label one.Sweep.curves many.Sweep.curves;
    (* worst witnesses agree, scenario and value *)
    Array.iteri
      (fun i w1 ->
        match (w1, many.Sweep.worst.(i)) with
        | Some (s1, v1), Some (s2, v2) ->
          Alcotest.(check bool) "worst scenario" true (Sc.equal s1 s2);
          Alcotest.(check (float 0.0)) "worst value" v1 v2
        | None, None -> ()
        | _ -> Alcotest.fail "worst witness presence differs")
      one.Sweep.worst
  in
  Alcotest.(check int) "scenario count" (List.length scenarios) one.Sweep.scenario_count;
  (* subtree fan-out across the domain ladder *)
  List.iter (fun d -> check_against (Printf.sprintf "1 vs %d domains" d) (run d)) [ 2; 4; 8 ]

let test_undefined_ratios_counted () =
  (* Zero demand makes the optimum 0 on every scenario: every ratio is
     undefined, none may leak into the curves, and the count must say so. *)
  let g, env = abilene_env ~demands_scale:0.0 () in
  let scenarios = S.enumerate g ~k:1 in
  let s = Sweep.run env ~algorithms:r3_algorithms scenarios in
  Array.iteri
    (fun i c ->
      Alcotest.(check int) "empty curve" 0 (Array.length c);
      Alcotest.(check int) "all undefined" (List.length scenarios) s.Sweep.undefined.(i);
      Alcotest.(check bool) "no witness" true (s.Sweep.worst.(i) = None))
    s.Sweep.curves;
  (* the single-scenario API agrees *)
  let r = E.evaluate env E.Ospf_r3 (List.hd scenarios) in
  Alcotest.(check bool) "evaluate ratio None" true (r.E.ratio = None)

let test_scenario_canonical () =
  let g = Topology.abilene () in
  let phys = S.physical_links g in
  let e = phys.(3) in
  let r = Option.get (G.reverse_link g e) in
  let a = Sc.of_links g [ e ] and b = Sc.of_links g [ r; e; e ] in
  Alcotest.(check bool) "reverse+dup folded" true (Sc.equal a b);
  Alcotest.(check int) "size" 1 (Sc.size a);
  Alcotest.(check string) "key" (Sc.key a) (Sc.key b);
  let c = Sc.of_links g [ phys.(5); phys.(3) ] in
  Alcotest.(check bool) "prefix sorts first" true (Sc.compare a c < 0);
  Alcotest.(check bool) "empty" true (Sc.is_empty (Sc.of_links g []))

(* What the retired raw-list wrappers ([Eval.sorted_curves] and friends)
   computed, the surviving API must still compute: the bulk curves equal
   the per-scenario loop over [Eval.scenario_bottleneck]. *)
let test_legacy_wrappers_agree () =
  let g, env = Lazy.force env in
  let scenarios = S.enumerate g ~k:1 in
  Alcotest.(check int) "one scenario per physical link"
    (Array.length (S.physical_links g))
    (List.length scenarios);
  check_bits "curves"
    (naive_curves env ~algorithms:r3_algorithms ~metric:`Bottleneck scenarios)
    (Sweep.curves ~metric:`Bottleneck env ~algorithms:r3_algorithms scenarios)

(* A bottleneck sweep reads each scenario's MLU from the folded load
   vector: no per-commodity base routing is folded. *)
let test_bottleneck_sweep_forces_no_base () =
  let g, env = Lazy.force env in
  let scenarios = S.enumerate g ~k:1 @ S.enumerate g ~k:2 in
  let forces () = R3_util.Metrics.counter_value "r3.reconfig.base_forces" in
  let before = forces () in
  ignore (Sweep.run ~metric:`Bottleneck env ~algorithms:r3_algorithms scenarios);
  Alcotest.(check int) "no base folded" before (forces ());
  let root = Option.get (E.r3_root env E.Ospf_r3) in
  ignore (R3_core.Reconfig.base (R3_core.Reconfig.fail root (List.hd scenarios)));
  Alcotest.(check bool) "reading a base folds it" true (forces () > before)

(* The fan-out runs one pool task per depth-1 subtree of the prefix
   forest at every pool size, never one per tree node. *)
let test_one_task_per_subtree () =
  let g, env = Lazy.force env in
  let scenarios = S.enumerate g ~k:1 @ S.enumerate g ~k:2 in
  let first_links =
    List.length (List.sort_uniq compare (List.map (fun sc -> List.hd (Sc.physical sc)) scenarios))
  in
  let tasks () = R3_util.Metrics.counter_value "sweep.tasks" in
  let run d =
    Test_pool.with_domains d @@ fun () ->
    let before = tasks () in
    let s = Sweep.run ~metric:`Bottleneck env ~algorithms:r3_algorithms scenarios in
    Alcotest.(check int) (Printf.sprintf "tasks at %d domains" d) first_links (tasks () - before);
    s.Sweep.curves
  in
  let one = run 1 in
  List.iter (fun d -> check_bits (Printf.sprintf "1 vs %d domains" d) one (run d)) [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "scenario canonical form" `Quick test_scenario_canonical;
    Alcotest.test_case "bottleneck identity k=1,2" `Slow test_bottleneck_identity_k12;
    Alcotest.test_case "ratio identity sampled k=3" `Slow test_ratio_identity_sampled_k3;
    Alcotest.test_case "domain count independence" `Slow test_domains_agree;
    Alcotest.test_case "undefined ratios counted" `Quick test_undefined_ratios_counted;
    Alcotest.test_case "legacy wrappers agree" `Quick test_legacy_wrappers_agree;
    Alcotest.test_case "bottleneck sweep forces no base" `Quick
      test_bottleneck_sweep_forces_no_base;
    Alcotest.test_case "one task per depth-1 subtree" `Quick test_one_task_per_subtree;
  ]
