(* One experiment per table/figure of the paper's evaluation (Section 5).
   Each function prints the rows/series of its artifact; EXPERIMENTS.md
   records the paper-vs-measured comparison. *)

module G = R3_net.Graph
module Traffic = R3_net.Traffic
module Topology = R3_net.Topology
module Routing = R3_net.Routing
module Offline = R3_core.Offline
module Eval = R3_sim.Eval
module Scenario = R3_sim.Scenario
module Scenarios = R3_sim.Scenarios
module Sweep = R3_sim.Sweep
module H = Harness

let algorithms =
  [
    Eval.Ospf_cspf_detour;
    Eval.Ospf_recon;
    Eval.Fcp;
    Eval.Path_splice;
    Eval.Ospf_r3;
    Eval.Ospf_opt;
    Eval.Mplsff_r3;
  ]

let alg_names = List.map Eval.algorithm_name algorithms

(* target_mlu is chosen so the offline MLU* over d + X stays below 1 -
   the regime of Theorem 1, where the paper's near-optimal behaviour under
   failures holds. Heavier traffic voids the guarantee and lets rescaling
   compound across failures (documented in EXPERIMENTS.md). *)
let usisp_ctx =
  lazy (H.make_context ~plan_k:2 ~target_mlu:0.3 ~tag:"usisp" ~seed:101 (Topology.usisp_like ()))
let sbc_ctx = lazy (H.make_context ~target_mlu:0.3 ~tag:"sbc" ~seed:103 (Topology.sbc_like ()))
let level3_ctx = lazy (H.make_context ~target_mlu:0.3 ~tag:"level3" ~seed:105 (Topology.level3_like ()))

(* Failure events for the US-ISP-style experiments: synthetic SRLGs and
   MLGs plus every single physical link (Section 5.1), each distinct
   failure set once (a group of one physical link is that link's
   single-link event). Events are kept within the plans' protection
   envelope (k = 2 physical pairs), matching the paper, where protection
   is computed for the same SRLG/MLG risk model the evaluation replays;
   larger groups are exercised by examples/srlg_maintenance.exe and the
   structured test suite. *)
let usisp_events ctx =
  let srlgs = Topology.synthetic_srlgs ~seed:11 ctx.H.g ~count:8 in
  let mlgs = Topology.synthetic_mlgs ~seed:12 ctx.H.g ~count:5 in
  let groups =
    List.filter (fun grp -> List.length grp <= 2 * ctx.H.plan_k) (srlgs @ mlgs)
  in
  List.sort_uniq Scenario.compare
    (Scenarios.of_groups ctx.H.g groups @ Scenarios.enumerate ctx.H.g ~k:1)

let usisp_env ctx ~interval = H.env_for ctx ~interval ()

(* The exact optimal flow-based MLU with no failure: the constant some
   figures divide by. *)
let no_failure_optimum g ~pairs ~demands =
  match R3_mcf.Flow_lp.min_mlu_dest g ~failed:(G.no_failures g) ~pairs ~demands with
  | Ok u -> u
  | Error status -> failwith ("optimal MCF with no failure: " ^ status)

(* ---------- Table 1 ---------- *)

let table1 () =
  H.section "Table 1: network topologies";
  H.row_format [ 12; 16; 10; 10 ] [ "Network"; "Aggregation"; "#Nodes"; "#D-Links" ];
  List.iter
    (fun { Topology.tag; graph; _ } ->
      let agg = if tag = "abilene" || tag = "generated" then "router-level" else "PoP-level" in
      let nodes, links =
        (* the paper withholds US-ISP's size *)
        if tag = "usisp" then ("-", "-")
        else
          (string_of_int (G.num_nodes graph), string_of_int (G.num_links graph))
      in
      H.row_format [ 12; 16; 10; 10 ] [ tag; agg; nodes; links ])
    (Topology.catalog ());
  H.note "US-ISP row printed as '-' per the paper; the synthetic stand-in has %d nodes / %d d-links"
    (G.num_nodes (Topology.usisp_like ()))
    (G.num_links (Topology.usisp_like ()))

(* ---------- Figure 3 ---------- *)

let fig3 () =
  H.section
    "Figure 3: time series of worst-case normalized MLU, one failure event \
     (SRLG/MLG/single link), US-ISP-like, 24 intervals";
  let ctx = Lazy.force usisp_ctx in
  let events = usisp_events ctx in
  let intervals = List.init 24 (fun h -> h) in
  (* Normalizer: highest optimal no-failure bottleneck over the day. *)
  let opt0 =
    List.map
      (fun interval ->
        no_failure_optimum ctx.H.g ~pairs:ctx.H.pairs ~demands:(H.interval_demands ctx ~interval))
      intervals
  in
  let normalizer = List.fold_left Float.max 1e-9 opt0 in
  Printf.printf "%-9s" "interval";
  List.iter (fun n -> Printf.printf "%18s" n) alg_names;
  Printf.printf "%18s\n" "optimal";
  List.iter
    (fun interval ->
      let env = usisp_env ctx ~interval in
      let worst alg =
        List.fold_left
          (fun acc ev -> Float.max acc (Eval.scenario_bottleneck env alg ev))
          0.0 events
      in
      let worst_opt =
        List.fold_left (fun acc ev -> Float.max acc (Eval.optimal env ev)) 0.0 events
      in
      Printf.printf "%-9d" interval;
      List.iter (fun alg -> Printf.printf "%18.3f" (worst alg /. normalizer)) algorithms;
      Printf.printf "%18.3f\n%!" (worst_opt /. normalizer))
    intervals

(* ---------- Figure 4 ---------- *)

let fig4 () =
  H.section
    "Figure 4: sorted worst-case performance ratio, one failure event, \
     US-ISP-like, week";
  let ctx = Lazy.force usisp_ctx in
  let events = usisp_events ctx in
  let step = if !H.quick then 12 else 1 in
  let intervals = List.init (168 / step) (fun i -> i * step) in
  (* One env and one optimum per event per interval, shared by all
     algorithms — the optimum is a pure function of the interval. *)
  let rows =
    intervals
    |> List.map (fun interval ->
           let env = usisp_env ctx ~interval in
           let opts = List.map (fun ev -> Eval.optimal env ev) events in
           List.map
             (fun alg ->
               List.fold_left2
                 (fun acc ev opt ->
                   if opt <= 0.0 then acc
                   else Float.max acc (Eval.scenario_bottleneck env alg ev /. opt))
                 1.0 events opts)
             algorithms)
  in
  let curves =
    Array.of_list
      (List.mapi
         (fun i _ ->
           let a = Array.of_list (List.map (fun row -> List.nth row i) rows) in
           Array.sort Float.compare a;
           a)
         algorithms)
  in
  H.print_sorted_curves ~label:"algorithm" alg_names curves;
  H.note "%d intervals (step %d), %d failure events each" (List.length intervals) step
    (List.length events)

(* ---------- Figures 5/6/7 ---------- *)

let multi_failure_figure ~title ~ctx ?env ~two_count ~three_count () =
  H.section title;
  let env = match env with Some e -> e | None -> H.env_for ctx ~interval:14 () in
  let g = ctx.H.g in
  (* Partition scenarios are excluded: the paper's congestion metric is
     defined over demands that keep reachability, and its (much larger)
     topologies essentially never partition under sampled failures. *)
  let two_all = Scenarios.connected g (Scenarios.enumerate g ~k:2) in
  let two =
    if List.length two_all <= two_count then two_all
    else begin
      let arr = Array.of_list two_all in
      Array.to_list (R3_util.Prng.sample (R3_util.Prng.create 21) two_count arr)
    end
  in
  let three =
    Scenarios.connected g (Scenarios.sample g ~k:3 ~count:(2 * three_count) ~seed:22)
    |> List.filteri (fun i _ -> i < three_count)
  in
  let run tagname scenarios =
    Printf.printf "\n(%s: %d scenarios)\n" tagname (List.length scenarios);
    let s = Sweep.run env ~algorithms scenarios in
    H.print_sorted_curves ~label:"algorithm" alg_names s.Sweep.curves;
    let undef = Array.fold_left ( + ) 0 s.Sweep.undefined in
    if undef > 0 then
      H.note "%d undefined performance ratios dropped (optimum 0)" undef
  in
  run "two failures" two;
  run "three failures (sampled)" three

let fig5 () =
  let ctx = Lazy.force usisp_ctx in
  multi_failure_figure
    ~title:"Figure 5: sorted performance ratio under two / three failures, US-ISP-like, peak hour"
    ~ctx ~env:(usisp_env ctx ~interval:14)
    ~two_count:(if !Harness.quick then 150 else 1200)
    ~three_count:(if !Harness.quick then 150 else 1100)
    ()

let fig6 () =
  multi_failure_figure
    ~title:"Figure 6: sorted performance ratio, SBC-like"
    ~ctx:(Lazy.force sbc_ctx)
    ~two_count:(if !Harness.quick then 80 else 600)
    ~three_count:(if !Harness.quick then 80 else 1100)
    ()

let fig7 () =
  multi_failure_figure
    ~title:"Figure 7: sorted performance ratio, Level-3-like"
    ~ctx:(Lazy.force level3_ctx)
    ~two_count:(if !Harness.quick then 80 else 700)
    ~three_count:(if !Harness.quick then 80 else 1100)
    ()

(* ---------- Figure 8: prioritized R3 ---------- *)

let fig8 () =
  H.section
    "Figure 8: prioritized R3 (TPRT/TPP/IP) vs general R3 - sorted \
     normalized bottleneck intensity per class";
  let ctx = Lazy.force usisp_ctx in
  let g = ctx.H.g in
  let rng = R3_util.Prng.create 31 in
  let tprt, tpp, ip = Traffic.split3 rng ctx.H.base_tm ~p1:0.15 ~p2:0.25 in
  (* cumulative demands per protection level *)
  let d1 = Traffic.add (Traffic.add tprt tpp) ip in
  let d2 = Traffic.add tprt tpp in
  let d3 = tprt in
  let base = R3_net.Ospf.routing g ~weights:ctx.H.weights ~pairs:ctx.H.pairs () in
  (* A bounded cut budget: on exhaustion the solver returns the
     best-so-far plan with an audited worst-case MLU, which is all the
     figure needs (relative class differentiation). *)
  let cfg =
    { (Offline.default_config ~f:1) with
      solve_method = Offline.Constraint_gen;
      cg_max_rounds = 12;
    }
  in
  (* Failure budgets are physical: one SRLG per bidirectional pair. *)
  let srlgs = R3_core.Structured.physical_srlgs g in
  let prioritized =
    H.cached_plan "usisp-prio" cfg (fun cfg ->
        match
          R3_core.Priority.compute cfg g ~srlgs
            ~classes:
              [
                { R3_core.Priority.demand = d1; f = 1 };
                { R3_core.Priority.demand = d2; f = 2 };
                { R3_core.Priority.demand = d3; f = 4 };
              ]
            (Offline.Fixed base)
        with
        | Ok p -> Ok p.R3_core.Priority.plan
        | Error _ as e -> e)
  in
  let general = H.structured_plan ~key:"usisp-gen-k1" ~k:1 ctx (fun () -> base) in
  match (prioritized, general) with
  | Error e, _ | _, Error e -> Printf.printf "fig8 failed: %s\n" e
  | Ok prio_plan, Ok gen_plan ->
    let normalizer = no_failure_optimum g ~pairs:ctx.H.pairs ~demands:ctx.H.demands in
    let class_demands tm = Array.map (fun (a, b) -> tm.(a).(b)) in
    (* Per-scenario per-class bottleneck: class i is congested only by
       traffic of its own priority or higher (strict-priority queueing). *)
    let class_intensities plan scenario =
      let st =
        R3_core.Reconfig.make g ~pairs:plan.Offline.pairs
          ~demands:(class_demands d1 plan.Offline.pairs)
          ~base:plan.Offline.base ~protection:plan.Offline.protection
      in
      let st = R3_core.Reconfig.apply_failures st (Scenario.links scenario) in
      let r' = R3_core.Reconfig.base st in
      let loads_of tm = Routing.loads g ~demands:(class_demands tm plan.Offline.pairs) r' in
      let l_tprt = loads_of tprt and l_tpp = loads_of tpp and l_ip = loads_of ip in
      let bottleneck loads =
        let worst = ref 0.0 in
        for e = 0 to G.num_links g - 1 do
          if not st.R3_core.Reconfig.failed.(e) then begin
            let u = loads.(e) /. G.capacity g e in
            if u > !worst then worst := u
          end
        done;
        !worst
      in
      let cum2 = Array.mapi (fun e v -> v +. l_tpp.(e)) l_tprt in
      let cum3 = Array.mapi (fun e v -> v +. l_ip.(e)) cum2 in
      (bottleneck l_tprt /. normalizer, bottleneck cum2 /. normalizer, bottleneck cum3 /. normalizer)
    in
    let top_worst k scenarios plan =
      scenarios
      |> List.map (fun s ->
             let _, _, total = class_intensities plan s in
             (total, s))
      |> List.sort (fun (a, _) (b, _) -> Float.compare b a)
      |> List.filteri (fun i _ -> i < k)
      |> List.map snd
    in
    let singles = Scenarios.enumerate g ~k:1 in
    let top = if !H.quick then 50 else 100 in
    let twos =
      top_worst top
        (Scenarios.connected g (Scenarios.sample g ~k:2 ~count:(4 * top) ~seed:41))
        gen_plan
    in
    let fours =
      top_worst top
        (Scenarios.connected g (Scenarios.sample g ~k:4 ~count:(4 * top) ~seed:42))
        gen_plan
    in
    let report name scenarios =
      Printf.printf "\n(%s: %d scenarios; values sorted)\n" name (List.length scenarios);
      let gather plan sel =
        scenarios
        |> List.map (fun s -> sel (class_intensities plan s))
        |> Array.of_list
        |> fun a ->
        Array.sort Float.compare a;
        a
      in
      let fst3 (x, _, _) = x and snd3 (_, x, _) = x and thd3 (_, _, x) = x in
      H.print_sorted_curves ~label:"class/scheme"
        [
          "TPRT general"; "TPRT priority"; "TPP general"; "TPP priority";
          "IP general"; "IP priority";
        ]
        [|
          gather gen_plan fst3; gather prio_plan fst3;
          gather gen_plan snd3; gather prio_plan snd3;
          gather gen_plan thd3; gather prio_plan thd3;
        |]
    in
    report "1-link failures" singles;
    report "worst-case 2-link failures" twos;
    report "worst-case 4-link failures" fours

(* ---------- Figure 9: penalty envelope ---------- *)

let fig9 () =
  H.section
    "Figure 9: normalized MLU with no failure, R3 without/with penalty \
     envelope vs OSPF vs optimal (Abilene-scale joint LP)";
  (* Joint optimization is what the envelope constrains, so this figure
     runs the true joint LP (7); Abilene keeps it within the from-scratch
     simplex's range (DESIGN.md section 5). *)
  let g = Topology.abilene () in
  let ctx = H.make_context ~tag:"abilene9" ~seed:109 ~target_mlu:0.5 g in
  let pairs = ctx.H.pairs in
  let cfg_nope =
    { (Offline.default_config ~f:2) with solve_method = Offline.Constraint_gen }
  in
  let opt_peak = no_failure_optimum g ~pairs ~demands:ctx.H.demands in
  let groups = { R3_core.Structured.srlgs = R3_core.Structured.physical_srlgs g; mlgs = []; k = 2 } in
  let no_pe =
    H.cached_plan "abilene9-nope" cfg_nope (fun cfg ->
        R3_core.Structured.compute cfg g ctx.H.base_tm groups Offline.Joint)
  in
  let with_pe =
    H.cached_plan "abilene9-pe"
      { cfg_nope with envelope = Some (1.1, opt_peak) }
      (fun cfg -> R3_core.Structured.compute cfg g ctx.H.base_tm groups Offline.Joint)
  in
  match (no_pe, with_pe) with
  | Error e, _ | _, Error e -> Printf.printf "fig9 failed: %s\n" e
  | Ok plan_nope, Ok plan_pe ->
    let intervals =
      List.init (if !H.quick then 42 else 168) (fun i -> i * (if !H.quick then 4 else 1))
    in
    let opt0 =
      List.map
        (fun interval -> no_failure_optimum g ~pairs ~demands:(H.interval_demands ctx ~interval))
        intervals
    in
    let normalizer = List.fold_left Float.max 1e-9 opt0 in
    Printf.printf "%-9s%12s%12s%12s%12s\n" "interval" "R3-noPE" "OSPF" "R3(b=1.1)" "optimal";
    List.iteri
      (fun idx interval ->
        let demands_k plan = Array.map (fun (a, b) -> (H.interval_tm ctx ~interval).(a).(b)) plan.Offline.pairs in
        let mlu_of plan =
          Routing.mlu g ~loads:(Routing.loads g ~demands:(demands_k plan) plan.Offline.base)
        in
        let ospf_r = R3_net.Ospf.routing g ~weights:ctx.H.weights ~pairs () in
        let demands = H.interval_demands ctx ~interval in
        let ospf_mlu = Routing.mlu g ~loads:(Routing.loads g ~demands ospf_r) in
        Printf.printf "%-9d%12.3f%12.3f%12.3f%12.3f\n%!" interval
          (mlu_of plan_nope /. normalizer)
          (ospf_mlu /. normalizer)
          (mlu_of plan_pe /. normalizer)
          (List.nth opt0 idx /. normalizer))
      intervals

(* ---------- Figure 10: base-routing robustness ---------- *)

let fig10 () =
  H.section
    "Figure 10: OSPFInvCap+R3 vs OSPF+R3 (optimized weights) - sorted \
     normalized MLU, US-ISP-like peak";
  let ctx = Lazy.force usisp_ctx in
  let g = ctx.H.g in
  let invcap_plan =
    H.structured_plan ~key:"usisp-invcap-r3" ~k:2 ctx (fun () ->
        R3_net.Ospf.routing g ~weights:(R3_net.Ospf.inv_cap_weights g) ~pairs:ctx.H.pairs ())
  in
  match (invcap_plan, H.ospf_r3_plan ctx) with
  | Error e, _ | _, Error e -> Printf.printf "fig10 failed: %s\n" e
  | Ok inv_plan, Ok opt_plan ->
    let normalizer = no_failure_optimum g ~pairs:ctx.H.pairs ~demands:ctx.H.demands in
    let eval plan scenario =
      let st =
        R3_core.Reconfig.make g ~pairs:plan.Offline.pairs
          ~demands:(Array.map (fun (a, b) -> ctx.H.base_tm.(a).(b)) plan.Offline.pairs)
          ~base:plan.Offline.base ~protection:plan.Offline.protection
      in
      R3_core.Reconfig.mlu
        (R3_core.Reconfig.apply_failures st (Scenario.links scenario))
      /. normalizer
    in
    let report name scenarios =
      Printf.printf "\n(%s: %d scenarios)\n" name (List.length scenarios);
      let curve plan =
        scenarios |> List.map (eval plan) |> Array.of_list
        |> fun a ->
        Array.sort Float.compare a;
        a
      in
      H.print_sorted_curves ~label:"base routing"
        [ "OSPFInvCap+R3"; "OSPF+R3" ]
        [| curve inv_plan; curve opt_plan |]
    in
    report "one failure" (Scenarios.enumerate g ~k:1);
    report "two failures"
      (Scenarios.sample g ~k:2 ~count:(if !H.quick then 120 else 1200) ~seed:61)

(* ---------- Figures 11-13: prototype experiments (fluid + MPLS-ff) ---------- *)

let abilene_run scheme_name =
  (* The prototype experiments use plain (hop-count) OSPF as the base -
     the paper's testbed ran standard Abilene IGP, not TE-optimized
     weights - and a load at which reconvergence, but not R3, overloads a
     link under the third failure. *)
  let g = Topology.abilene () in
  let weights = R3_net.Ospf.unit_weights g in
  let rng = R3_util.Prng.create 111 in
  let tm0 = Traffic.gravity rng g ~load_factor:0.4 () in
  (* Abilene's measured matrix is coast-to-coast heavy; emphasize the
     west<->east pairs the failed links carry, as in the paper's testbed
     trace. *)
  let west = [ "Seattle"; "Sunnyvale"; "LosAngeles" ] in
  let east = [ "NewYork"; "Washington"; "Atlanta" ] in
  List.iter
    (fun w ->
      List.iter
        (fun e ->
          let a = G.node_id g w and b = G.node_id g e in
          tm0.(a).(b) <- 3.0 *. tm0.(a).(b);
          tm0.(b).(a) <- 3.0 *. tm0.(b).(a))
        east)
    west;
  let pairs0, demands0 = Traffic.commodities tm0 in
  let r0 = R3_net.Ospf.routing g ~weights ~pairs:pairs0 () in
  let mlu0 = Routing.mlu g ~loads:(Routing.loads g ~demands:demands0 r0) in
  let base_tm = Traffic.scale tm0 (0.5 /. mlu0) in
  let pairs, demands = Traffic.commodities base_tm in
  let ctx =
    { H.g; tag = "abilene11"; base_tm; pairs; demands; weights; plan_k = 1 }
  in
  let id n = G.node_id g n in
  let module F = R3_sim.Fluid in
  let events =
    [
      { F.at_s = 60.0; fail = Option.get (G.find_link g (id "Houston") (id "KansasCity")) };
      { F.at_s = 120.0; fail = Option.get (G.find_link g (id "Chicago") (id "Indianapolis")) };
      { F.at_s = 180.0; fail = Option.get (G.find_link g (id "Sunnyvale") (id "Denver")) };
    ]
  in
  let scheme =
    match scheme_name with
    | `R3 ->
      let plan =
        let base () = R3_net.Ospf.routing g ~weights:ctx.H.weights ~pairs:ctx.H.pairs () in
        match H.structured_plan ~key:"abilene11-r3c" ~k:1 ctx base with
        | Ok p -> p
        | Error e -> failwith e
      in
      F.R3_plan plan
    | `Ospf -> F.Ospf { weights = ctx.H.weights; reconvergence_s = 4.0 }
  in
  let config = { F.default_config with F.duration_s = 300.0; dt_s = 1.0 } in
  let run = F.run ~config g ~pairs:ctx.H.pairs ~demands:ctx.H.demands ~scheme ~events () in
  (g, ctx, events, run)

let fig11 () =
  H.section
    "Figure 11: R3 prototype under 3 sequential link failures (Abilene): \
     throughput / link load / egress loss";
  let module F = R3_sim.Fluid in
  let g, _, events, run = abilene_run `R3 in
  let phase_names = [ "normal"; "1 failure"; "2 failures"; "3 failures" ] in
  let cap_total = G.total_capacity g in
  Printf.printf "\n(a) normalized OD throughput (sum over pairs, per phase)\n";
  List.iteri
    (fun i thr ->
      let sum = Array.fold_left ( +. ) 0.0 thr in
      Printf.printf "  %-12s total=%.4f  max-pair=%.5f\n" (List.nth phase_names i)
        (sum /. cap_total)
        (Array.fold_left Float.max 0.0 thr /. cap_total))
    (F.throughput_by_phase run ~events);
  Printf.printf "\n(b) per-link normalized traffic intensity (sorted, per phase)\n";
  List.iteri
    (fun i utils ->
      let s = R3_util.Stats.sorted utils in
      Printf.printf "  %-12s p50=%.3f p90=%.3f max=%.3f\n" (List.nth phase_names i)
        (R3_util.Stats.percentile 50.0 s)
        (R3_util.Stats.percentile 90.0 s)
        (R3_util.Stats.max s))
    (F.utilization_by_phase run ~events);
  Printf.printf "\n(c) aggregated loss rate at egress routers (per phase)\n";
  List.iteri
    (fun i losses ->
      Printf.printf "  %-12s mean=%.4f%% max=%.4f%%\n" (List.nth phase_names i)
        (100.0 *. R3_util.Stats.mean losses)
        (100.0 *. R3_util.Stats.max losses))
    (F.egress_loss_by_phase g run ~events);
  H.note "R3's bottleneck intensity stays bounded across all phases (paper: <= 0.37)"

let fig12 () =
  H.section "Figure 12: RTT of the Denver - LosAngeles flow during the failure run";
  let module F = R3_sim.Fluid in
  let g, _, _, run = abilene_run `R3 in
  let id n = G.node_id g n in
  let series = F.rtt_series run ~src:(id "Denver") ~dst:(id "LosAngeles") in
  Printf.printf "%-10s%12s\n" "time(s)" "RTT(ms)";
  List.iter
    (fun (t, rtt) ->
      if int_of_float t mod 10 = 0 then Printf.printf "%-10.0f%12.2f\n" t rtt)
    series

let fig13 () =
  H.section
    "Figure 13: per-link normalized intensity under 3 failures - MPLS-ff+R3 \
     vs OSPF+recon (sorted)";
  let module F = R3_sim.Fluid in
  let _, _, events, run_r3 = abilene_run `R3 in
  let g, _, _, run_ospf = abilene_run `Ospf in
  let last_phase run =
    match List.rev (F.utilization_by_phase run ~events) with
    | last :: _ -> R3_util.Stats.sorted last
    | [] -> [||]
  in
  let r3 = last_phase run_r3 and ospf = last_phase run_ospf in
  Printf.printf "%-8s%14s%14s\n" "rank" "MPLS-ff+R3" "OSPF+recon";
  let m = Array.length r3 in
  for i = 0 to m - 1 do
    if i mod 2 = 0 || i = m - 1 then
      Printf.printf "%-8d%14.3f%14.3f\n" i r3.(i) ospf.(i)
  done;
  Printf.printf "max: R3 %.3f vs OSPF %.3f\n"
    (R3_util.Stats.max r3) (R3_util.Stats.max ospf);
  ignore g

(* ---------- Table 2: offline precomputation time ---------- *)

let table2 () =
  H.section "Table 2: R3 offline precomputation time (seconds) vs #failures";
  let measure g tm f =
    let pairs, _ = Traffic.commodities tm in
    let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
    (* A pivot budget keeps pathologically degenerate instances from
       dominating the table; they report "inf" (the paper's CPLEX simply
       absorbs such cases). *)
    let cfg =
      { (Offline.default_config ~f) with
        solve_method = Offline.Constraint_gen;
        max_pivots = Some 60_000;
      }
    in
    let result, dt = R3_util.Timer.time (fun () -> Offline.compute cfg g tm (Offline.Fixed base)) in
    match result with Ok _ -> Some dt | Error _ -> None
  in
  let topos =
    [
      ("abilene", Topology.abilene (), [ 1; 2; 3; 4; 5; 6 ]);
      ("usisp", Topology.usisp_like (), if !H.quick then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5; 6 ]);
      ("level3", Topology.level3_like (), if !H.quick then [ 1 ] else [ 1; 2; 3; 4; 5; 6 ]);
      ("sbc", Topology.sbc_like (), if !H.quick then [ 1 ] else [ 1; 2; 3; 4; 5; 6 ]);
    ]
  in
  Printf.printf "%-12s" "Network";
  List.iter (fun f -> Printf.printf "%10s" (Printf.sprintf "F=%d" f)) [ 1; 2; 3; 4; 5; 6 ];
  print_newline ();
  List.iter
    (fun (name, g, fs) ->
      let rng = R3_util.Prng.create 7 in
      let tm = Traffic.gravity rng g ~load_factor:0.3 () in
      Printf.printf "%-12s" name;
      List.iter
        (fun f ->
          if List.mem f fs then begin
            match measure g tm f with
            | Some dt -> Printf.printf "%10.2f" dt
            | None -> Printf.printf "%10s" "inf"
          end
          else Printf.printf "%10s" "-")
        [ 1; 2; 3; 4; 5; 6 ];
      print_newline ();
      flush stdout)
    topos;
  H.note
    "UUNet/Generated exceed the from-scratch dense simplex (|E|^2 protection \
     variables); the paper used CPLEX. See EXPERIMENTS.md. Times are the \
     constraint-generation solver (equivalent optimum; cross-checked against \
     the dualized LP (7) in the test suite).";
  H.note "quick mode limits Level-3/SBC to F=1; run with --full for all columns"

(* ---------- Table 3: storage overhead ---------- *)

let table3 () =
  H.section "Table 3: router storage overhead of the MPLS-ff implementation";
  Printf.printf "%-12s%8s%10s%12s%12s\n" "Network" "#ILM" "#NHLFE" "FIB" "RIB";
  let human b =
    if b >= 1_048_576 then Printf.sprintf "%.1f MB" (float_of_int b /. 1_048_576.0)
    else Printf.sprintf "%.1f KB" (float_of_int b /. 1_024.0)
  in
  List.iter
    (fun { Topology.tag; graph = g; _ } ->
      (* Protection routing: the R3 plan where the LP is in range; a CSPF
         per-link bypass otherwise (storage shape is what Table 3 reports,
         and it depends on the support structure, not optimality). *)
      let protection =
        let from_plan () =
          let rng = R3_util.Prng.create 7 in
          let tm = Traffic.gravity rng g ~load_factor:0.3 () in
          let pairs, _ = Traffic.commodities tm in
          let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
          (* Bounded solve: the storage shape only needs the support
             structure of a (near-)optimal p, not the exact optimum. *)
          let cfg =
            { (Offline.default_config ~f:2) with
              solve_method = Offline.Constraint_gen;
              max_pivots = Some 60_000;
              cg_max_rounds = 10;
            }
          in
          match
            H.cached_plan (tag ^ "-t3") cfg (fun cfg -> Offline.compute cfg g tm (Offline.Fixed base))
          with
          | Ok plan -> Some plan.Offline.protection
          | Error _ -> None
        in
        match if G.num_links g <= 50 then from_plan () else None with
        | Some p -> p
        | None -> R3_baselines.Cspf_detour.protection g
      in
      let r = R3_mplsff.Storage.of_protection g protection in
      Printf.printf "%-12s%8d%10d%12s%12s\n%!" tag r.R3_mplsff.Storage.ilm_entries
        r.R3_mplsff.Storage.nhlfe_entries
        (human r.R3_mplsff.Storage.fib_bytes)
        (human r.R3_mplsff.Storage.rib_bytes))
    (Topology.catalog ());
  H.note "Level-3/SBC/UUNet/Generated rows use a CSPF per-link bypass as the protection support (LP out of practical simplex range)"

(* ---------- Ablations (design choices called out in DESIGN.md) ---------- *)

let ablation () =
  H.section "Ablations: solver method, pricing payoff, MPLS-ff vs path-based";
  (* (a) CG vs the paper's dualized LP (7): identical optimum, different
     size/time. *)
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 71 in
  let tm = Traffic.gravity rng g ~load_factor:0.2 () in
  let pairs, _ = Traffic.commodities tm in
  let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
  let solve m f =
    let cfg =
      { (Offline.default_config ~f) with
        solve_method = m;
        max_pivots = Some 80_000;
      }
    in
    R3_util.Timer.time (fun () -> Offline.compute cfg g tm (Offline.Fixed base))
  in
  let dual, t_dual = solve Offline.Dualized 1 in
  let cg, t_cg = solve Offline.Constraint_gen 1 in
  (match (dual, cg) with
  | Ok d, Ok c ->
    Printf.printf
      "(a) offline solver, Abilene F=1:\n    dualized LP (7): mlu=%.4f  %d vars x %d rows  %.2fs\n    constraint gen : mlu=%.4f  %d vars x %d rows  %.2fs\n"
      d.Offline.mlu d.Offline.lp_vars d.Offline.lp_rows t_dual c.Offline.mlu
      c.Offline.lp_vars c.Offline.lp_rows t_cg
  | _ -> Printf.printf "(a) solver ablation: dualized LP exceeded its pivot budget (CG is the production path)\n");
  (* (b) MPLS-ff ratio retuning vs path-based LSP churn after one failure
     (the section 4.1 argument for MPLS-ff). *)
  (match cg with
  | Ok plan ->
    let st = R3_core.Reconfig.of_plan plan in
    let st = R3_core.Reconfig.fail st (Scenario.of_links g [ 5 ]) in
    let fresh, total =
      R3_net.Flow_decompose.path_churn g ~before:plan.Offline.protection
        ~after:st.R3_core.Reconfig.protection
    in
    let lsps = R3_net.Flow_decompose.total_paths g plan.Offline.protection in
    Printf.printf
      "(b) path-based MPLS would signal %d LSPs up front and re-signal %d/%d after one failure;\n    MPLS-ff only retunes NHLFE ratios (0 new labels).\n"
      lsps fresh total
  | Error _ -> ());
  (* (c) protection envelope: structured per-pair SRLGs vs arbitrary
     directed failures - the price of the general envelope. *)
  let groups =
    { R3_core.Structured.srlgs = R3_core.Structured.physical_srlgs g; mlgs = []; k = 1 }
  in
  let cfgk =
    { (Offline.default_config ~f:1) with solve_method = Offline.Constraint_gen }
  in
  (match
     ( R3_core.Structured.compute cfgk g tm groups (Offline.Fixed base),
       Offline.compute { cfgk with Offline.f = 2 } g tm (Offline.Fixed base) )
   with
  | Ok s, Ok a ->
    Printf.printf
      "(c) protecting 1 physical failure: mlu=%.4f; 2 arbitrary directed: mlu=%.4f\n"
      s.Offline.mlu a.Offline.mlu
  | _ -> Printf.printf "(c) envelope ablation failed\n")
