(* Tests for the approximate min-MLU solver against the exact LP. *)

module G = R3_net.Graph
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Cf = R3_mcf.Concurrent_flow

let commodities_of g ~seed ~load =
  let rng = R3_util.Prng.create seed in
  let tm = Traffic.gravity rng g ~load_factor:load () in
  Traffic.commodities tm

let test_exact_triangle () =
  (* Single commodity a->b demand 15 on a capacity-10 full mesh: the direct
     link takes 10 max; optimal splits 10 direct + 5 via c giving MLU
     ... min-MLU solution: x direct, (15-x)/ via c; utilizations x/10 and
     (15-x)/10; balanced at x=7.5 -> MLU 0.75. *)
  let g = Topology.triangle () in
  let pairs = [| (0, 1) |] and demands = [| 15.0 |] in
  match Cf.min_mlu_exact g ~pairs ~demands () with
  | Error m -> Alcotest.fail m
  | Ok (mlu, routing) ->
    Alcotest.(check (float 1e-5)) "exact mlu" 0.75 mlu;
    (match R3_net.Routing.validate g routing with
    | Ok () -> ()
    | Error m -> Alcotest.fail m)

let test_approx_close_to_exact_abilene () =
  let g = Topology.abilene () in
  let pairs, demands = commodities_of g ~seed:5 ~load:0.5 in
  let exact =
    match Cf.min_mlu_exact g ~pairs ~demands () with
    | Ok (m, _) -> m
    | Error e -> Alcotest.fail e
  in
  let approx = fst (Cf.min_mlu_routing g ~epsilon:0.05 ~pairs ~demands ()) in
  (* Upper bound by construction, and within ~2 epsilon of optimal. *)
  Alcotest.(check bool)
    (Printf.sprintf "approx %.4f >= exact %.4f" approx.Cf.mlu exact)
    true
    (approx.Cf.mlu >= exact -. 1e-6);
  Alcotest.(check bool)
    (Printf.sprintf "approx %.4f within 15%% of exact %.4f" approx.Cf.mlu exact)
    true
    (approx.Cf.mlu <= exact *. 1.15)

let test_approx_under_failure () =
  let g = Topology.abilene () in
  let pairs, demands = commodities_of g ~seed:6 ~load:0.4 in
  let id n = G.node_id g n in
  let e = Option.get (G.find_link g (id "Denver") (id "KansasCity")) in
  let failed = G.fail_bidir g [ e ] in
  let exact =
    match Cf.min_mlu_exact g ~failed ~pairs ~demands () with
    | Ok (m, _) -> m
    | Error e -> Alcotest.fail e
  in
  let approx = fst (Cf.min_mlu_routing g ~failed ~epsilon:0.05 ~pairs ~demands ()) in
  Alcotest.(check bool)
    (Printf.sprintf "failure: approx %.4f vs exact %.4f" approx.Cf.mlu exact)
    true
    (approx.Cf.mlu >= exact -. 1e-6 && approx.Cf.mlu <= exact *. 1.15)

let test_partition_drops_lost_demand () =
  let g = Topology.abilene () in
  let id n = G.node_id g n in
  (* Isolate Seattle. *)
  let e1 = Option.get (G.find_link g (id "Seattle") (id "Sunnyvale")) in
  let e2 = Option.get (G.find_link g (id "Seattle") (id "Denver")) in
  let failed = G.fail_bidir g [ e1; e2 ] in
  let pairs = [| (id "Seattle", id "NewYork"); (id "Denver", id "Houston") |] in
  let demands = [| 50.0; 10.0 |] in
  let r = fst (Cf.min_mlu_routing g ~failed ~pairs ~demands ()) in
  (* Only the Denver->Houston demand survives; it fits easily. *)
  Alcotest.(check bool) "positive" true (r.Cf.mlu > 0.0);
  Alcotest.(check bool) "small (lost demand dropped)" true (r.Cf.mlu < 0.5)

let test_zero_demand () =
  let g = Topology.triangle () in
  let r = fst (Cf.min_mlu_routing g ~pairs:[| (0, 1) |] ~demands:[| 0.0 |] ()) in
  Alcotest.(check (float 0.0)) "zero" 0.0 r.Cf.mlu

(* Gravity matrix scaled so unit-weight OSPF routes it at MLU [target],
   as the benchmark's workloads build theirs. *)
let scaled_commodities g ~seed ~target =
  let tm = Traffic.gravity (R3_util.Prng.create seed) g ~load_factor:0.4 () in
  let pairs, demands = Traffic.commodities tm in
  let ospf = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
  let mlu = R3_net.Routing.mlu g ~loads:(R3_net.Routing.loads g ~demands ospf) in
  Traffic.commodities (Traffic.scale tm (target /. mlu))

let pop36 () =
  Topology.random ~seed:36 ~nodes:36 ~undirected_links:80
    ~capacities:[ (10.0, 0.5); (40.0, 0.3); (100.0, 0.2) ]
    ()

(* Golden bits recorded before the shortest-path kernels stopped
   allocating per path and per tree. The rewrite does the same
   floating-point operations in the same order, so every bit of the MLU,
   the iteration count and the extracted routing must stay. *)
let check_golden what (r : Cf.result) ~mlu ~iterations =
  Alcotest.(check string) (what ^ ": mlu bits") mlu (Printf.sprintf "%h" r.Cf.mlu);
  Alcotest.(check int) (what ^ ": iterations") iterations r.Cf.iterations;
  Alcotest.(check bool) (what ^ ": not capped") false r.Cf.capped

let test_golden_abilene () =
  let g = Topology.abilene () in
  let pairs, demands = commodities_of g ~seed:5 ~load:0.5 in
  check_golden "abilene"
    (fst (Cf.min_mlu_routing g ~epsilon:0.05 ~pairs ~demands ()))
    ~mlu:"0x1.4839676ba7072p-1" ~iterations:19690

(* SBC at the normalizer's epsilon: no failure, two connected physical
   2-failure sets and a 3-failure set that cuts the network (its lost
   commodities are dropped). *)
let test_golden_sbc () =
  let g = Topology.sbc_like () in
  let pairs, demands = scaled_commodities g ~seed:1001 ~target:0.3 in
  List.iter
    (fun (links, connected, mlu, iterations) ->
      let what = "sbc [" ^ String.concat ";" (List.map string_of_int links) ^ "]" in
      let failed = G.fail_bidir g links in
      Alcotest.(check bool) (what ^ ": connected") connected (G.strongly_connected g ~failed ());
      check_golden what
        (fst (Cf.min_mlu_routing g ~failed ~epsilon:0.06 ~pairs ~demands ()))
        ~mlu ~iterations)
    [
      ([], true, "0x1.728956a5f8ad2p-3", 36803);
      ([ 6; 34 ], true, "0x1.247e6df54a406p-2", 34352);
      ([ 16; 60 ], true, "0x1.cb51c8c970686p-3", 36309);
      ([ 0; 24; 48 ], false, "0x1.17c4aee2dbeep-3", 33060);
    ]

let routing_md5 r =
  let buf = Buffer.create 65536 in
  Array.iter
    (Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)))
    (R3_net.Routing.to_dense_matrix r);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The GK base routing of the benchmark's pop36 workloads (epsilon 0.1). *)
let test_golden_pop36_base () =
  let g = pop36 () in
  let pairs, demands = scaled_commodities g ~seed:1002 ~target:0.3 in
  let r, routing = Cf.min_mlu_routing g ~epsilon:0.1 ~pairs ~demands () in
  check_golden "pop36 base" r ~mlu:"0x1.6b4afd03ba271p-4" ~iterations:60552;
  Alcotest.(check string) "pop36 base: routing bits" "5c7f7e199643b7ea804d89c3a4af3803"
    (routing_md5 routing)

(* The exact min-MLU LP's golden cases: the triangle, and Abilene
   (gravity seed 5 scaled to OSPF MLU 0.5) with no failure, one and two
   bidirectional failures. *)
let exact_cases () =
  let g = Topology.abilene () in
  let pairs, demands = scaled_commodities g ~seed:5 ~target:0.5 in
  let tri = Topology.triangle () in
  [
    ("triangle", tri, G.no_failures tri, [| (0, 1) |], [| 15.0 |]);
    ("abilene", g, G.no_failures g, pairs, demands);
    ("abilene [0]", g, G.fail_bidir g [ 0 ], pairs, demands);
    ("abilene [0;5]", g, G.fail_bidir g [ 0; 5 ], pairs, demands);
  ]

(* Golden bits of the exact min-MLU LP on {!exact_cases}: its MLU and
   the routing it extracts (hashed row by row, as the plan goldens
   are). *)
let test_golden_exact () =
  List.iter2
    (fun (what, g, failed, pairs, demands) (mlu, md5) ->
      match Cf.min_mlu_exact g ~failed ~pairs ~demands () with
      | Error e -> Alcotest.failf "%s: %s" what e
      | Ok (u, routing) ->
        Alcotest.(check string) (what ^ ": mlu bits") mlu (Printf.sprintf "%h" u);
        Alcotest.(check string) (what ^ ": routing bits") md5
          (Test_core.protection_md5 routing))
    (exact_cases ())
    [
      ("0x1.8p-1", "53bc642fcfed55e3c4c9d07342be5263");
      ("0x1.7c01a63d26c61p-2", "3ccf9eea68e31164b836cdff124989ef");
      ("0x1.7c01a63d26c64p-2", "9e0b7b6e934cae16f5e2084e55cf08dc");
      ("0x1.57502fc5c2fdcp-1", "aa7e852ede7402a71e25d060425f5ffa");
    ]

(* The per-destination normalizer on SBC (the GK goldens' matrix and
   failure sets): its MLU bits and its pivots, read off [lp.pivots]. The
   shortest-path-tree start leaves nothing for phase 1, so a change of
   start or of pivoting rule shows up here. *)
let test_golden_dest_sbc () =
  let g = Topology.sbc_like () in
  let pairs, demands = scaled_commodities g ~seed:1001 ~target:0.3 in
  let pivots () = R3_util.Metrics.counter_value "lp.pivots" in
  let phase1 () = R3_util.Metrics.counter_value "lp.phase1_pivots" in
  List.iter
    (fun (links, mlu, n_pivots) ->
      let what = "sbc [" ^ String.concat ";" (List.map string_of_int links) ^ "]" in
      let failed = G.fail_bidir g links in
      let p0 = pivots () and q0 = phase1 () in
      match R3_mcf.Flow_lp.min_mlu_dest g ~failed ~pairs ~demands with
      | Error e -> Alcotest.failf "%s: %s" what e
      | Ok u ->
        Alcotest.(check string) (what ^ ": mlu bits") mlu (Printf.sprintf "%h" u);
        Alcotest.(check int) (what ^ ": pivots") n_pivots (pivots () - p0);
        Alcotest.(check int) (what ^ ": phase-1 pivots") 0 (phase1 () - q0))
    [
      ([], "0x1.6f535b1b56c82p-3", 101);
      ([ 6; 34 ], "0x1.24654a9071bc3p-2", 19);
      ([ 16; 60 ], "0x1.cb2831e22c7a3p-3", 59);
      ([ 0; 24; 48 ], "0x1.16e2ca113b6aep-3", 132);
    ]

(* The per-destination normalizer against the per-pair exact LP on
   Abilene's 2-failure sets: every set that partitions the network (its
   cut-off demand is dropped and its unreachable nodes keep their
   artificials) and every third connected one. *)
let test_dest_vs_exact_abilene () =
  let g = Topology.abilene () in
  let pairs, demands = scaled_commodities g ~seed:5 ~target:0.5 in
  let partitioned = ref 0 in
  List.iteri
    (fun i sc ->
      let links = R3_core.Scenario.links sc in
      let failed = G.fail_links g links in
      let connected = G.strongly_connected g ~failed () in
      if (not connected) || i mod 3 = 0 then begin
        if not connected then incr partitioned;
        let what = R3_core.Scenario.describe g sc in
        match
          (R3_mcf.Flow_lp.min_mlu_dest g ~failed ~pairs ~demands,
           Cf.min_mlu_exact g ~failed ~pairs ~demands ())
        with
        | Ok u, Ok (exact, _) ->
          if Float.abs (u -. exact) > 1e-9 *. exact then
            Alcotest.failf "%s: per-destination %.17g, exact %.17g" what u exact
        | Error e, _ | _, Error e -> Alcotest.failf "%s: %s" what e
      end)
    (R3_sim.Scenarios.enumerate g ~k:2);
  Alcotest.(check int) "partitioning 2-failure sets" 11 !partitioned

(* Abilene at epsilon 0.005 needs about 2.0M trees to converge (1,976,458
   with this matrix): the solve stops at the cap and says so. *)
let test_cap_reported () =
  let g = Topology.abilene () in
  let pairs, demands = commodities_of g ~seed:5 ~load:0.5 in
  let before = R3_util.Metrics.counter_value "mcf.capped" in
  let r = fst (Cf.min_mlu_routing g ~epsilon:0.005 ~pairs ~demands ()) in
  Alcotest.(check bool) "capped" true r.Cf.capped;
  Alcotest.(check bool)
    (Printf.sprintf "%d iterations reach the cap" r.Cf.iterations)
    true
    (r.Cf.iterations >= Cf.max_iterations);
  Alcotest.(check int) "mcf.capped counted" (before + 1)
    (R3_util.Metrics.counter_value "mcf.capped")

(* Scaling property: min-MLU is linear in demand. *)
let scaling_prop =
  QCheck.Test.make ~count:20 ~name:"min-MLU scales linearly with demand"
    QCheck.(pair (int_bound 1_000) (float_range 0.5 3.0))
    (fun (seed, alpha) ->
      let g = Topology.square () in
      let pairs, demands = commodities_of g ~seed ~load:0.3 in
      match
        ( Cf.min_mlu_exact g ~pairs ~demands (),
          Cf.min_mlu_exact g ~pairs
            ~demands:(Array.map (fun d -> d *. alpha) demands)
            () )
      with
      | Ok (m1, _), Ok (m2, _) -> Float.abs ((m1 *. alpha) -. m2) <= 1e-5 *. (1.0 +. m2)
      | _ -> false)

let suite =
  [
    Alcotest.test_case "exact LP on triangle" `Quick test_exact_triangle;
    Alcotest.test_case "approx ~ exact (abilene)" `Slow test_approx_close_to_exact_abilene;
    Alcotest.test_case "approx ~ exact under failure" `Slow test_approx_under_failure;
    Alcotest.test_case "partition drops lost demand" `Quick test_partition_drops_lost_demand;
    Alcotest.test_case "zero demand" `Quick test_zero_demand;
    Alcotest.test_case "golden bits: abilene" `Quick test_golden_abilene;
    Alcotest.test_case "golden bits: sbc failures" `Quick test_golden_sbc;
    Alcotest.test_case "golden bits: pop36 GK base" `Quick test_golden_pop36_base;
    Alcotest.test_case "golden bits: exact LP" `Quick test_golden_exact;
    Alcotest.test_case "iteration cap is reported" `Quick test_cap_reported;
    Alcotest.test_case "golden bits: per-destination LP on sbc" `Quick test_golden_dest_sbc;
    Alcotest.test_case "per-destination LP = exact (abilene)" `Quick test_dest_vs_exact_abilene;
    QCheck_alcotest.to_alcotest scaling_prop;
  ]
