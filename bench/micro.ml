(* Bechamel micro-benchmarks: one Test.make per recurring kernel of the
   tables/figures, so regressions in the hot paths show up quantitatively.

   - table2 kernel: one offline precomputation (CG) on the square fixture;
   - table3 kernel: FIB construction + storage accounting;
   - fig3-7 kernels: online rescaling, scenario MLU evaluation, the
     knapsack separation oracle, and the GK optimal-MLU normalizer. *)

open Bechamel
open Toolkit

module G = R3_net.Graph
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Offline = R3_core.Offline

let square_inputs =
  lazy
    (let g = Topology.square () in
     let tm = Traffic.zeros 4 in
     tm.(0).(2) <- 2.0;
     tm.(1).(3) <- 2.0;
     (g, tm))

let abilene_plan =
  lazy
    (let g = Topology.abilene () in
     let rng = R3_util.Prng.create 5 in
     let tm = Traffic.gravity rng g ~load_factor:0.2 () in
     let pairs, demands = Traffic.commodities tm in
     let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
     let cfg =
       { (Offline.default_config ~f:2) with solve_method = Offline.Constraint_gen }
     in
     match Offline.compute cfg g tm (Offline.Fixed base) with
     | Ok plan -> (g, plan, pairs, demands)
     | Error e -> failwith e)

let test_offline_square =
  Test.make ~name:"table2: offline precompute (square, F=1)"
    (Staged.stage (fun () ->
         let g, tm = Lazy.force square_inputs in
         let cfg =
           { (Offline.default_config ~f:1) with
             solve_method = Offline.Constraint_gen }
         in
         match Offline.compute cfg g tm Offline.Joint with
         | Ok plan -> ignore plan.Offline.mlu
         | Error e -> failwith e))

let test_rescaling =
  Test.make ~name:"fig3-7: online reconfiguration (1 bidir failure, Abilene)"
    (Staged.stage (fun () ->
         let _, plan, _, _ = Lazy.force abilene_plan in
         let st = R3_core.Reconfig.of_plan plan in
         let g = plan.R3_core.Offline.graph in
         ignore (R3_core.Reconfig.fail st (R3_core.Scenario.of_links g [ 3 ]))))

let test_scenario_mlu =
  Test.make ~name:"fig3-7: scenario MLU (2 failures, Abilene)"
    (Staged.stage (fun () ->
         let _, plan, _, _ = Lazy.force abilene_plan in
         ignore (R3_core.Verify.scenario_mlu plan [ 3; 11 ])))

let test_knapsack_oracle =
  Test.make ~name:"CG separation oracle (28 links, F=3)"
    (Staged.stage (fun () ->
         let weights = Array.init 28 (fun i -> float_of_int ((i * 37) mod 23)) in
         ignore (R3_core.Virtual_demand.worst_virtual_load_set ~f:3 weights)))

let test_normalizer =
  Test.make ~name:"figs: exact optimal-MLU normalizer (Abilene)"
    (Staged.stage (fun () ->
         let g, _, pairs, demands = Lazy.force abilene_plan in
         ignore (R3_mcf.Flow_lp.min_mlu_dest g ~failed:(G.no_failures g) ~pairs ~demands)))

let test_fib_storage =
  Test.make ~name:"table3: FIB build + storage accounting (Abilene)"
    (Staged.stage (fun () ->
         let g, plan, _, _ = Lazy.force abilene_plan in
         ignore (R3_mplsff.Storage.of_protection g plan.Offline.protection)))

let benchmarks =
  Test.make_grouped ~name:"r3"
    [
      test_offline_square;
      test_rescaling;
      test_scenario_mlu;
      test_knapsack_oracle;
      test_normalizer;
      test_fib_storage;
    ]

(* Bechamel boilerplate: run every test for a fixed small quota and print
   an ols-regressed ns/run table. *)
let benchmark () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 50) () in
  let raw = Benchmark.all cfg instances benchmarks in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  Analyze.merge ols instances results

let print_results results =
  Hashtbl.iter
    (fun measure tbl ->
      Printf.printf "\n[%s]\n" measure;
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-55s %12.1f ns/run\n" name est
          | Some ests ->
            Printf.printf "  %-55s %s\n" name
              (String.concat ", " (List.map (Printf.sprintf "%.1f") ests))
          | None -> Printf.printf "  %-55s (no estimate)\n" name)
        tbl)
    results

let main () =
  Harness.section "Bechamel micro-benchmarks (one kernel per table/figure)";
  (* Force the shared fixtures so their construction cost does not leak
     into the per-run estimates. *)
  ignore (Lazy.force square_inputs);
  ignore (Lazy.force abilene_plan);
  print_results (benchmark ())
