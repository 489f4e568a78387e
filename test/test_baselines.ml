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
  let o = B.Path_splicing.(evaluate (create g ~weights) ~failed ~pairs ~demands) in
  Alcotest.(check (float 1e-6)) "no failures: everything arrives" 1.0 o.B.Types.delivered

let test_path_splicing_reroutes () =
  let g, weights, pairs, demands, _ = abilene_env ~seed:4 ~load:0.3 in
  let id n = G.node_id g n in
  let e = Option.get (G.find_link g (id "Denver") (id "KansasCity")) in
  let failed = G.fail_bidir g [ e ] in
  let o = B.Path_splicing.(evaluate (create g ~weights) ~failed ~pairs ~demands) in
  Alcotest.(check bool)
    (Printf.sprintf "most demand survives (%.3f)" o.B.Types.delivered)
    true
    (o.B.Types.delivered > 0.85);
  Array.iteri
    (fun l v -> if failed.(l) && v > 1e-9 then Alcotest.failf "load on failed %d" l)
    o.B.Types.loads

(* The golden failure sets on [g]: every directed link alone and the
   first four connected physical 2-failure sets; then every link at the
   first node of least degree, whose pairs it partitions. *)
let golden_sets g =
  let m = G.num_links g in
  let singles = List.init m (fun e -> [ e ]) in
  let pairs2 =
    R3_sim.Scenarios.connected g (R3_sim.Scenarios.enumerate g ~k:2)
    |> List.filteri (fun i _ -> i < 4)
    |> List.map R3_sim.Scenario.links
  in
  let degree v = Array.length (G.out_links g v) in
  let lonely = ref 0 in
  for v = 1 to G.num_nodes g - 1 do
    if degree v < degree !lonely then lonely := v
  done;
  let partition =
    Array.to_list (G.out_links g !lonely) @ Array.to_list (G.in_links g !lonely)
  in
  (singles @ pairs2, partition)

(* An outcome's load bits, then its delivered bits. *)
let add_outcome buf o =
  Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) o.B.Types.loads;
  Buffer.add_int64_le buf (Int64.bits_of_float o.B.Types.delivered)

(* Digest of each outcome over {!golden_sets}, in order. [splice] is a
   set run between the two groups: PathSplice's pin checks its
   splicing there. The partition set must lose demand. *)
let golden_digest ?(splice = fun _ -> ()) g outcome =
  let buf = Buffer.create 65536 in
  let run links =
    let o = outcome (G.fail_links g links) in
    add_outcome buf o;
    o
  in
  let sets, partition = golden_sets g in
  List.iter (fun links -> ignore (run links)) sets;
  splice run;
  Alcotest.(check bool) "partition set loses demand" true
    ((run partition).B.Types.delivered < 1.0);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* PathSplice's digest runs the physical link slice 0 loads most with
   nothing failed between the groups, and checks that splicing saves
   some of the traffic slice 0 sends over it (without it, all of that
   would be lost). *)
let splice_digest g ~total outcome =
  let before = (outcome (G.no_failures g)).B.Types.loads in
  let busiest = ref 0 in
  Array.iteri (fun e l -> if l > before.(!busiest) then busiest := e) before;
  let splice = R3_sim.Scenario.links (R3_sim.Scenario.of_links g [ !busiest ]) in
  let crossing = List.fold_left (fun acc e -> acc +. before.(e)) 0.0 splice in
  golden_digest g outcome ~splice:(fun run ->
      Alcotest.(check bool) "splicing saves traffic" true
        ((run splice).B.Types.delivered > 1.0 -. (crossing /. total) +. 1e-9))

(* The PathSplice pin's environments: Abilene with unit weights
   (gravity seed 4, load 0.3), and SBC with weights 1 to 4, link id mod
   4 plus 1 (gravity seed 1001, load 0.4). *)
let splice_envs () =
  let g, weights, pairs, demands, _ = abilene_env ~seed:4 ~load:0.3 in
  let sbc = Topology.sbc_like () in
  let tm = Traffic.gravity (R3_util.Prng.create 1001) sbc ~load_factor:0.4 () in
  let sbc_pairs, sbc_demands = Traffic.commodities tm in
  [
    ("abilene", g, weights, pairs, demands);
    ("sbc", sbc, Array.init (G.num_links sbc) (fun e -> float_of_int (1 + (e mod 4))),
     sbc_pairs, sbc_demands);
  ]

(* Golden bits of PathSplice's loads and delivered fraction. *)
let test_path_splicing_golden () =
  List.iter2
    (fun (name, g, weights, pairs, demands) expected ->
      let splice = B.Path_splicing.create g ~weights in
      let outcome failed = B.Path_splicing.evaluate splice ~failed ~pairs ~demands in
      let total = Array.fold_left ( +. ) 0.0 demands in
      Alcotest.(check string) (name ^ " outcome bits") expected (splice_digest g ~total outcome))
    (splice_envs ())
    [ "268e797913e20850f083e6265e97955c"; "3eeb7bcda6c50a79a961a4fd6c0c1c63" ]

(* Golden bits of FCP's and OSPF+CSPF-detour's loads and delivered
   fraction over {!golden_sets}, on the PathSplice pin's environments.
   CSPF's base is ECMP OSPF on the environment's weights. *)
let test_fcp_golden () =
  List.iter2
    (fun (name, g, weights, pairs, demands) expected ->
      Alcotest.(check string) (name ^ " outcome bits") expected
        (golden_digest g (fun failed -> B.Fcp.evaluate g ~failed ~weights ~pairs ~demands ())))
    (splice_envs ())
    [ "663351fac197c6cefa23b9c559503904"; "aef61a54a9e31bb26f6a05c5da32d3f1" ]

let test_cspf_golden () =
  List.iter2
    (fun (name, g, weights, pairs, demands) expected ->
      let base = Ospf.routing g ~weights ~pairs () in
      Alcotest.(check string) (name ^ " outcome bits") expected
        (golden_digest g (fun failed ->
             B.Cspf_detour.evaluate g ~failed ~weights ~base ~demands ())))
    (splice_envs ())
    [ "16f8f7b2ccab63771da41d0758fb822b"; "dbc01a29246c1a348d95b887196f066a" ]

(* An env's PathSplice tables are its own weights': two SBC envs, on
   unit weights and on the pin's, each give the load and delivered bits
   of a fresh {!B.Path_splicing.create} on their weights, directly and
   through {!R3_sim.Eval.evaluate}, on every single physical failure,
   and they differ somewhere. *)
let test_path_splicing_env_tables () =
  let _, sbc, weights, pairs, demands = List.nth (splice_envs ()) 1 in
  let scenarios = R3_sim.Scenarios.enumerate sbc ~k:1 in
  let show o =
    String.concat " "
      (List.map (Printf.sprintf "%h") (o.B.Types.delivered :: Array.to_list o.B.Types.loads))
  in
  let bits weights =
    let env = R3_sim.Eval.make_env sbc ~weights ~pairs ~demands () in
    let fresh = B.Path_splicing.create sbc ~weights in
    List.map
      (fun sc ->
        let failed = G.fail_links sbc (R3_sim.Scenario.links sc) in
        let want = B.Path_splicing.evaluate fresh ~failed ~pairs ~demands in
        let mine = B.Path_splicing.evaluate env.R3_sim.Eval.path_splice ~failed ~pairs ~demands in
        let r = R3_sim.Eval.evaluate ~with_optimal:false env R3_sim.Eval.Path_splice sc in
        let what = R3_core.Scenario.describe sbc sc in
        Alcotest.(check string) (what ^ ": env tables") (show want) (show mine);
        Alcotest.(check string) (what ^ ": Eval")
          (Printf.sprintf "%h %h" (B.Types.bottleneck sbc ~failed want) want.B.Types.delivered)
          (Printf.sprintf "%h %h" r.R3_sim.Eval.bottleneck r.R3_sim.Eval.delivered);
        show want)
      scenarios
  in
  Alcotest.(check bool) "the weights matter" true (bits (Ospf.unit_weights sbc) <> bits weights)

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

(* The detour LP's golden scenarios: SBC, gravity seed 1001 scaled to
   unit-weight OSPF MLU 0.3, the first 40 connected 2-failure sets and
   20 sampled 3-failure sets. *)
let sbc_detour_env () =
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
  (g, base, demands, scenarios)

(* Golden bits of the detour LP over {!sbc_detour_env}. One digest
   covers each outcome's load bits and then its delivered bits. *)
let test_opt_detour_golden () =
  let g, base, demands, scenarios = sbc_detour_env () in
  let buf = Buffer.create 65536 in
  let worst = ref 0.0 in
  List.iter
    (fun sc ->
      let failed = G.fail_links g (R3_sim.Scenario.links sc) in
      match B.Opt_detour.evaluate g ~failed ~base ~demands () with
      | Error m -> Alcotest.fail m
      | Ok o ->
        add_outcome buf o;
        worst := Float.max !worst (B.Types.bottleneck g ~failed o))
    scenarios;
  Alcotest.(check int) "scenarios" 60 (List.length scenarios);
  Alcotest.(check string) "outcome bits" "162f5bd57f882e6a3e93aa1254ced218"
    (Digest.to_hex (Digest.string (Buffer.contents buf)));
  Alcotest.(check string) "worst bottleneck bits" "0x1.9b3448780c0a7p-2"
    (Printf.sprintf "%h" !worst)

(* The reroute LP starts from shortest detours
   ({!R3_mcf.Flow_lp.min_mlu}). On every LP behind the two golden pins
   it re-recorded, the exact min-MLU cases and the SBC detour
   scenarios above, it must reach the MLU of the two-phase reference
   build of the same LP within 1e-9 relative, and spend no phase-1
   pivot. *)
let test_reroute_start_vs_reference () =
  let phase1 () = R3_util.Metrics.counter_value "lp.phase1_pivots" in
  let agree what g ~failed ~pairs ~demands ~background =
    let q0 = phase1 () in
    let started = R3_mcf.Flow_lp.min_mlu g ~failed ~pairs ~demands ~background in
    Alcotest.(check int) (what ^ ": phase-1 pivots") 0 (phase1 () - q0);
    match (started, R3_check.Reroute_ref.min_mlu g ~failed ~pairs ~demands ~background) with
    | Ok (u, _), Ok reference ->
      if Float.abs (u -. reference) > 1e-9 *. reference then
        Alcotest.failf "%s: started %.17g, two-phase %.17g" what u reference
    | Error e, _ | _, Error e -> Alcotest.failf "%s: %s" what e
  in
  List.iter
    (fun (what, g, failed, pairs, demands) ->
      let live =
        List.filter
          (fun k -> demands.(k) > 0.0 && (G.reachable g ~failed (fst pairs.(k))).(snd pairs.(k)))
          (List.init (Array.length pairs) Fun.id)
      in
      agree what g ~failed
        ~pairs:(Array.of_list (List.map (Array.get pairs) live))
        ~demands:(Array.of_list (List.map (Array.get demands) live))
        ~background:(Array.make (G.num_links g) 0.0))
    (Test_mcf.exact_cases ());
  let g, base, demands, scenarios = sbc_detour_env () in
  List.iter
    (fun sc ->
      let failed = G.fail_links g (R3_sim.Scenario.links sc) in
      let pairs, demands, background = R3_check.Reroute_ref.opt_detour_lp g ~failed ~base ~demands in
      agree (R3_core.Scenario.describe g sc) g ~failed ~pairs ~demands ~background)
    scenarios

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
    Alcotest.test_case "golden bits: path splicing" `Quick test_path_splicing_golden;
    Alcotest.test_case "path splicing tables follow env weights" `Quick
      test_path_splicing_env_tables;
    Alcotest.test_case "opt detour beats cspf" `Quick test_opt_detour_beats_cspf;
    Alcotest.test_case "opt detour = base when no failure" `Quick test_opt_detour_no_failures_is_base;
    Alcotest.test_case "golden bits: opt detour on SBC" `Quick test_opt_detour_golden;
    Alcotest.test_case "reroute LP start = two-phase reference" `Quick
      test_reroute_start_vs_reference;
    QCheck_alcotest.to_alcotest opt_lower_bound_prop;
    Alcotest.test_case "golden bits: fcp" `Quick test_fcp_golden;
    Alcotest.test_case "golden bits: cspf detour" `Quick test_cspf_golden;
  ]
