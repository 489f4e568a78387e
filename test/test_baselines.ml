(* Tests for the protection baselines of Section 5.1. *)

module G = R3_net.Graph
module Routing = R3_net.Routing
module Traffic = R3_net.Traffic
module Topology = R3_net.Topology
module Ospf = R3_net.Ospf
module B = R3_baselines

let abilene_env ~seed ~load =
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create seed in
  let tm = Traffic.gravity rng g ~load_factor:load () in
  let pairs, demands = Traffic.commodities tm in
  let weights = Ospf.unit_weights g in
  let base = Ospf.routing g ~weights ~pairs () in
  (g, weights, pairs, demands, base)

let total_load loads = Array.fold_left ( +. ) 0.0 loads

let test_recon_no_failure_matches_base () =
  let g, weights, pairs, demands, base = abilene_env ~seed:3 ~load:0.3 in
  let o =
    B.Ospf_recon.evaluate g ~weights ~pairs ~demands ()
  in
  let base_loads = Routing.loads g ~demands base in
  Array.iteri
    (fun e l ->
      if Float.abs (l -. base_loads.(e)) > 1e-6 then
        Alcotest.failf "link %d differs: %g vs %g" e l base_loads.(e))
    o.B.Types.loads;
  Alcotest.(check (float 1e-9)) "all delivered" 1.0 o.B.Types.delivered

let test_recon_avoids_failed_links () =
  let g, weights, pairs, demands, _ = abilene_env ~seed:3 ~load:0.3 in
  let failed = G.fail_bidir g [ 0; 5 ] in
  let o = B.Ospf_recon.evaluate g ~failed ~weights ~pairs ~demands () in
  Array.iteri
    (fun e l -> if failed.(e) && l > 1e-9 then Alcotest.failf "load on failed link %d" e)
    o.B.Types.loads

let test_cspf_conserves_traffic () =
  let g, weights, _, demands, base = abilene_env ~seed:7 ~load:0.3 in
  let id n = G.node_id g n in
  let e = Option.get (G.find_link g (id "KansasCity") (id "Houston")) in
  let failed = G.fail_bidir g [ e ] in
  let o = B.Cspf_detour.evaluate g ~failed ~weights ~base ~demands () in
  Alcotest.(check (float 1e-9)) "nothing lost (connected)" 1.0 o.B.Types.delivered;
  (* No load left on failed links. *)
  Array.iteri
    (fun l v -> if failed.(l) && v > 1e-9 then Alcotest.failf "load on failed %d" l)
    o.B.Types.loads;
  (* The detour adds load: total link-load cannot shrink. *)
  let base_total = total_load (Routing.loads g ~demands base) in
  Alcotest.(check bool) "detour >= base total" true
    (total_load o.B.Types.loads >= base_total -. 1e-6)

let test_fcp_delivers_when_connected () =
  let g, weights, pairs, demands, _ = abilene_env ~seed:9 ~load:0.3 in
  let id n = G.node_id g n in
  let e1 = Option.get (G.find_link g (id "Chicago") (id "Indianapolis")) in
  let e2 = Option.get (G.find_link g (id "Sunnyvale") (id "Denver")) in
  let failed = G.fail_bidir g [ e1; e2 ] in
  let o = B.Fcp.evaluate g ~failed ~weights ~pairs ~demands () in
  Alcotest.(check (float 1e-6)) "FCP reaches all destinations" 1.0 o.B.Types.delivered;
  Array.iteri
    (fun l v -> if failed.(l) && v > 1e-9 then Alcotest.failf "load on failed %d" l)
    o.B.Types.loads

let test_fcp_drops_partitioned () =
  let g, weights, pairs, demands, _ = abilene_env ~seed:9 ~load:0.3 in
  let id n = G.node_id g n in
  let e1 = Option.get (G.find_link g (id "Seattle") (id "Sunnyvale")) in
  let e2 = Option.get (G.find_link g (id "Seattle") (id "Denver")) in
  let failed = G.fail_bidir g [ e1; e2 ] in
  let o = B.Fcp.evaluate g ~failed ~weights ~pairs ~demands () in
  Alcotest.(check bool) "some demand lost" true (o.B.Types.delivered < 1.0)

let test_path_splicing_normal_equals_slice0 () =
  let g, weights, pairs, demands, _ = abilene_env ~seed:4 ~load:0.3 in
  let failed = G.no_failures g in
  let o = B.Path_splicing.evaluate g ~failed ~weights ~pairs ~demands () in
  Alcotest.(check (float 1e-6)) "no failures: everything arrives" 1.0 o.B.Types.delivered

let test_path_splicing_reroutes () =
  let g, weights, pairs, demands, _ = abilene_env ~seed:4 ~load:0.3 in
  let id n = G.node_id g n in
  let e = Option.get (G.find_link g (id "Denver") (id "KansasCity")) in
  let failed = G.fail_bidir g [ e ] in
  let o = B.Path_splicing.evaluate g ~failed ~weights ~pairs ~demands () in
  Alcotest.(check bool)
    (Printf.sprintf "most demand survives (%.3f)" o.B.Types.delivered)
    true
    (o.B.Types.delivered > 0.85);
  Array.iteri
    (fun l v -> if failed.(l) && v > 1e-9 then Alcotest.failf "load on failed %d" l)
    o.B.Types.loads

let test_opt_detour_beats_cspf () =
  let g, weights, _, demands, base = abilene_env ~seed:8 ~load:0.5 in
  let id n = G.node_id g n in
  let e = Option.get (G.find_link g (id "Indianapolis") (id "Atlanta")) in
  let failed = G.fail_bidir g [ e ] in
  let cspf = B.Cspf_detour.evaluate g ~failed ~weights ~base ~demands () in
  let cspf_u = B.Types.bottleneck g ~failed cspf in
  match B.Opt_detour.mlu g ~failed ~base ~demands () with
  | Error m -> Alcotest.fail m
  | Ok opt_u ->
    Alcotest.(check bool)
      (Printf.sprintf "opt %.4f <= cspf %.4f" opt_u cspf_u)
      true (opt_u <= cspf_u +. 1e-6)

let test_opt_detour_no_failures_is_base () =
  let g, _, _, demands, base = abilene_env ~seed:8 ~load:0.5 in
  let failed = G.no_failures g in
  match B.Opt_detour.evaluate g ~failed ~base ~demands () with
  | Error m -> Alcotest.fail m
  | Ok o ->
    let base_loads = Routing.loads g ~demands base in
    Array.iteri
      (fun e l ->
        if Float.abs (l -. base_loads.(e)) > 1e-6 then
          Alcotest.failf "link %d: %g vs base %g" e l base_loads.(e))
      o.B.Types.loads

(* Golden bits of the detour LP over many scenarios: SBC, gravity seed
   1001 scaled to unit-weight OSPF MLU 0.3, the first 40 connected
   2-failure sets and 20 sampled 3-failure sets. One digest covers each
   outcome's load bits and then its delivered bits. *)
let test_opt_detour_golden () =
  let g = Topology.sbc_like () in
  let weights = Ospf.unit_weights g in
  let tm = Traffic.gravity (R3_util.Prng.create 1001) g ~load_factor:0.4 () in
  let pairs, demands = Traffic.commodities tm in
  let ospf = Ospf.routing g ~weights ~pairs () in
  let tm = Traffic.scale tm (0.3 /. Routing.mlu g ~loads:(Routing.loads g ~demands ospf)) in
  let pairs, demands = Traffic.commodities tm in
  let base = Ospf.routing g ~weights ~pairs () in
  let scenarios =
    List.filteri (fun i _ -> i < 40)
      (R3_sim.Scenarios.connected g (R3_sim.Scenarios.enumerate g ~k:2))
    @ R3_sim.Scenarios.sample g ~k:3 ~count:20 ~seed:9
  in
  let buf = Buffer.create 65536 in
  let worst = ref 0.0 in
  List.iter
    (fun sc ->
      let failed = G.fail_links g (R3_sim.Scenario.links sc) in
      match B.Opt_detour.evaluate g ~failed ~base ~demands () with
      | Error m -> Alcotest.fail m
      | Ok o ->
        Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) o.B.Types.loads;
        Buffer.add_int64_le buf (Int64.bits_of_float o.B.Types.delivered);
        worst := Float.max !worst (B.Types.bottleneck g ~failed o))
    scenarios;
  Alcotest.(check int) "scenarios" 60 (List.length scenarios);
  Alcotest.(check string) "outcome bits" "2c0fc42f6dc3a23753287d963eb0abad"
    (Digest.to_hex (Digest.string (Buffer.contents buf)));
  Alcotest.(check string) "worst bottleneck bits" "0x1.9b3448780c0a7p-2"
    (Printf.sprintf "%h" !worst)

(* Ordering property the paper relies on throughout Figs 3-7:
   opt detour <= any specific detour scheme on the same base. *)
let opt_lower_bound_prop =
  QCheck.Test.make ~count:25 ~name:"opt detour lower-bounds CSPF detour"
    QCheck.(pair (int_bound 500) (int_bound 13))
    (fun (seed, phys) ->
      let g, weights, _, demands, base = abilene_env ~seed ~load:0.4 in
      let phys_links = R3_sim.Scenarios.physical_links g in
      QCheck.assume (phys < Array.length phys_links);
      let scenario =
        R3_sim.Scenario.links (R3_sim.Scenario.of_links g [ phys_links.(phys) ])
      in
      let failed = G.fail_links g scenario in
      let cspf = B.Cspf_detour.evaluate g ~failed ~weights ~base ~demands () in
      match B.Opt_detour.mlu g ~failed ~base ~demands () with
      | Error _ -> false
      | Ok opt_u -> opt_u <= B.Types.bottleneck g ~failed cspf +. 1e-6)

let suite =
  [
    Alcotest.test_case "recon = base without failures" `Quick test_recon_no_failure_matches_base;
    Alcotest.test_case "recon avoids failed links" `Quick test_recon_avoids_failed_links;
    Alcotest.test_case "cspf detour conserves traffic" `Quick test_cspf_conserves_traffic;
    Alcotest.test_case "fcp delivers when connected" `Quick test_fcp_delivers_when_connected;
    Alcotest.test_case "fcp drops partitioned demand" `Quick test_fcp_drops_partitioned;
    Alcotest.test_case "path splicing delivers normally" `Quick test_path_splicing_normal_equals_slice0;
    Alcotest.test_case "path splicing reroutes" `Quick test_path_splicing_reroutes;
    Alcotest.test_case "opt detour beats cspf" `Quick test_opt_detour_beats_cspf;
    Alcotest.test_case "opt detour = base when no failure" `Quick test_opt_detour_no_failures_is_base;
    Alcotest.test_case "golden bits: opt detour on SBC" `Quick test_opt_detour_golden;
    QCheck_alcotest.to_alcotest opt_lower_bound_prop;
  ]
