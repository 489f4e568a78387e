(* Prioritized resilient routing (Section 3.5): three traffic classes with
   different SLAs share one base routing and one protection routing, but
   get different failure budgets - the paper's TPRT / TPP / IP example.

   Run with:  dune exec examples/prioritized_protection.exe *)

module G = R3_net.Graph
module Traffic = R3_net.Traffic
module Offline = R3_core.Offline
module P = R3_core.Priority

let () =
  (* A small fixture keeps the three-class LP interactive. *)
  let g =
    R3_net.Topology.random ~seed:8 ~nodes:8 ~undirected_links:13
      ~capacities:[ (100.0, 1.0) ] ()
  in
  let rng = R3_util.Prng.create 5 in
  let total = Traffic.gravity rng g ~load_factor:0.3 () in
  (* TPRT (real-time) ~15%, TPP (private transport) ~25%, IP the rest. *)
  let tprt, tpp, ip = Traffic.split3 rng total ~p1:0.15 ~p2:0.25 in
  let d1 = Traffic.add (Traffic.add tprt tpp) ip in
  let d2 = Traffic.add tprt tpp in
  let d3 = tprt in
  let pairs, _ = Traffic.commodities d1 in
  let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
  let srlgs = R3_core.Structured.physical_srlgs g in
  let cfg =
    { (Offline.default_config ~f:1) with solve_method = Offline.Constraint_gen }
  in
  let classes =
    [
      { P.demand = d1; f = 1 };  (* everything survives 1 physical failure *)
      { P.demand = d2; f = 2 };  (* TPRT+TPP survive 2 *)
      { P.demand = d3; f = 3 };  (* TPRT survives 3 *)
    ]
  in
  match P.compute cfg g ~srlgs ~classes (Offline.Fixed base) with
  | Error msg -> Format.printf "prioritized compute failed: %s@." msg
  | Ok { P.plan; class_mlus } ->
    Format.printf "shared plan found; per-class worst-case MLU over d_i + X_{f_i}:@.";
    List.iteri
      (fun i name ->
        Format.printf "  %-22s F=%d  MLU = %.3f%s@." name
          (List.nth classes i).P.f class_mlus.(i)
          (if class_mlus.(i) <= 1.0 then "  (congestion-free guaranteed)" else ""))
      [ "all traffic (IP SLA)"; "TPP and above"; "TPRT only" ];
    (* Sanity: the audit is recomputed here from the plan's raw routing. *)
    let audit = P.audit_class_mlus ~srlgs ~classes plan in
    Array.iteri
      (fun i v -> assert (Float.abs (v -. class_mlus.(i)) < 1e-9))
      audit;
    Format.printf "@.(the audit recomputes the same values from the raw routing: ok)@."
