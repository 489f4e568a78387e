module G = R3_net.Graph
module Routing = R3_net.Routing
module B = R3_baselines

type algorithm =
  | Ospf_cspf_detour
  | Ospf_recon
  | Fcp
  | Path_splice
  | Ospf_r3
  | Ospf_opt
  | Mplsff_r3

let algorithm_name = function
  | Ospf_cspf_detour -> "OSPF+CSPF-detour"
  | Ospf_recon -> "OSPF+recon"
  | Fcp -> "FCP"
  | Path_splice -> "PathSplice"
  | Ospf_r3 -> "OSPF+R3"
  | Ospf_opt -> "OSPF+opt"
  | Mplsff_r3 -> "MPLS-ff+R3"

let all_algorithms =
  [ Ospf_cspf_detour; Ospf_recon; Fcp; Path_splice; Ospf_r3; Ospf_opt; Mplsff_r3 ]

type env = {
  graph : G.t;
  weights : float array;
  pairs : (G.node * G.node) array;
  demands : float array;
  ospf_base : Routing.t;
  path_splice : B.Path_splicing.t;
  ospf_r3 : R3_core.Offline.plan option;
  mplsff_r3 : R3_core.Offline.plan option;
}

let make_env g ~weights ~pairs ~demands ?ospf_r3 ?mplsff_r3 () =
  let ospf_base = R3_net.Ospf.routing g ~weights ~pairs () in
  let path_splice = B.Path_splicing.create g ~weights in
  { graph = g; weights; pairs; demands; ospf_base; path_splice; ospf_r3; mplsff_r3 }

let r3_root_of_plan env plan =
  (* Evaluate the plan's routing against the env's demands (the plan may
     have been computed for a different - e.g. peak - matrix). *)
  let plan_pairs = plan.R3_core.Offline.pairs in
  let demands =
    if plan_pairs == env.pairs then env.demands
    else begin
      (* align env demands onto plan commodities *)
      let idx = Hashtbl.create 64 in
      Array.iteri (fun k pr -> Hashtbl.replace idx pr k) env.pairs;
      Array.map
        (fun pr ->
          match Hashtbl.find_opt idx pr with
          | Some k -> env.demands.(k)
          | None -> 0.0)
        plan_pairs
    end
  in
  R3_core.Reconfig.make env.graph ~pairs:plan_pairs ~demands
    ~base:plan.R3_core.Offline.base ~protection:plan.R3_core.Offline.protection

let r3_root env alg =
  match alg with
  | Ospf_r3 -> begin
    match env.ospf_r3 with
    | Some plan -> Some (r3_root_of_plan env plan)
    | None -> invalid_arg "Eval: OSPF+R3 requested without a plan"
  end
  | Mplsff_r3 -> begin
    match env.mplsff_r3 with
    | Some plan -> Some (r3_root_of_plan env plan)
    | None -> invalid_arg "Eval: MPLS-ff+R3 requested without a plan"
  end
  | Ospf_cspf_detour | Ospf_recon | Fcp | Path_splice | Ospf_opt -> None

(* Fraction of demand whose OD pair keeps reachability — the delivery
   ceiling of any flow-based scheme, reported for Ospf_opt (whose LP has no
   explicit drop accounting). *)
let reachable_fraction env ~failed =
  let total = Array.fold_left ( +. ) 0.0 env.demands in
  if total <= 0.0 then 1.0
  else begin
    let got = ref 0.0 in
    Array.iteri
      (fun k (a, b) ->
        if env.demands.(k) > 0.0 && not (G.partitions_pair env.graph failed a b)
        then got := !got +. env.demands.(k))
      env.pairs;
    !got /. total
  end

(* An LP that did not reach an optimum: say so, naming the failed links
   and the LP status, and never report another number under its label. *)
let unsolved g what scenario status =
  failwith
    (Printf.sprintf "Eval: %s on failed links [%s]: %s" what
       (String.concat "; "
          (List.map
             (fun e ->
               Printf.sprintf "%d %s-%s" e
                 (G.node_name g (G.src g e))
                 (G.node_name g (G.dst g e)))
             scenario))
       status)

(* Bottleneck intensity and delivered fraction of one algorithm under one
   scenario given as directed failed links. *)
let outcome_links env alg scenario =
  let g = env.graph in
  let failed = G.fail_links g scenario in
  let of_baseline o = (B.Types.bottleneck g ~failed o, o.B.Types.delivered) in
  match alg with
  | Ospf_recon ->
    of_baseline
      (B.Ospf_recon.evaluate g ~failed ~weights:env.weights ~pairs:env.pairs
         ~demands:env.demands ())
  | Ospf_cspf_detour ->
    of_baseline
      (B.Cspf_detour.evaluate g ~failed ~weights:env.weights ~base:env.ospf_base
         ~demands:env.demands ())
  | Fcp ->
    of_baseline
      (B.Fcp.evaluate g ~failed ~weights:env.weights ~pairs:env.pairs
         ~demands:env.demands ())
  | Path_splice ->
    of_baseline
      (B.Path_splicing.evaluate env.path_splice ~failed ~pairs:env.pairs ~demands:env.demands)
  | Ospf_opt -> begin
    match B.Opt_detour.mlu g ~failed ~base:env.ospf_base ~demands:env.demands () with
    | Ok u -> (u, reachable_fraction env ~failed)
    | Error status ->
      (* Every commodity is reachable and the MLU has no upper bound, so
         only a pivot-budget stop lands here. *)
      unsolved g "OSPF+opt" scenario status
  end
  | Ospf_r3 | Mplsff_r3 ->
    let st = Option.get (r3_root env alg) in
    let st = R3_core.Reconfig.apply_failures st scenario in
    (R3_core.Reconfig.mlu st, R3_core.Reconfig.delivered_fraction st)

let scenario_bottleneck env alg scenario =
  fst (outcome_links env alg (Scenario.links scenario))

let optimal env scenario =
  let links = Scenario.links scenario in
  let failed = G.fail_links env.graph links in
  match
    R3_mcf.Flow_lp.min_mlu_dest env.graph ~failed ~pairs:env.pairs ~demands:env.demands
  with
  | Ok u -> u
  | Error status -> unsolved env.graph "optimal MCF" links status

type result = {
  bottleneck : float;
  optimal : float;
  ratio : float option;
  delivered : float;
}

let evaluate ?(with_optimal = true) env alg scenario =
  let b, d = outcome_links env alg (Scenario.links scenario) in
  if with_optimal then begin
    let opt = optimal env scenario in
    {
      bottleneck = b;
      optimal = opt;
      ratio = (if opt > 0.0 then Some (b /. opt) else None);
      delivered = d;
    }
  end
  else { bottleneck = b; optimal = nan; ratio = None; delivered = d }
