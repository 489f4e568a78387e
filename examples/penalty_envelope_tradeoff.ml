(* The penalty-envelope trade-off (Section 3.5, Figure 9): optimizing
   exclusively for failures can hurt the no-failure MLU; bounding it by
   beta * optimal recovers normal-case performance at a small cost in
   failure-case performance. This example sweeps beta.

   Run with:  dune exec examples/penalty_envelope_tradeoff.exe *)

module G = R3_net.Graph
module Traffic = R3_net.Traffic
module Routing = R3_net.Routing
module Offline = R3_core.Offline

let () =
  (* A mid-size fixture keeps each joint LP under a few seconds. *)
  let g =
    R3_net.Topology.random ~seed:5 ~nodes:8 ~undirected_links:14
      ~capacities:[ (100.0, 1.0) ] ()
  in
  let rng = R3_util.Prng.create 12 in
  let tm = Traffic.gravity rng g ~load_factor:0.35 () in
  let pairs, demands = Traffic.commodities tm in
  (* Optimal no-failure MLU (the envelope's reference point). *)
  let opt =
    (R3_mcf.Concurrent_flow.min_mlu g ~epsilon:0.03 ~pairs ~demands ())
      .R3_mcf.Concurrent_flow.mlu
  in
  Format.printf "optimal no-failure MLU: %.3f@.@." opt;
  Format.printf "%-10s %14s %18s@." "beta" "normal MLU" "MLU over d + X_1";
  let groups =
    {
      R3_core.Structured.srlgs = R3_core.Structured.physical_srlgs g;
      mlgs = [];
      k = 1;
    }
  in
  List.iter
    (fun beta ->
      let cfg =
        {
          (Offline.default_config ~f:1) with
          solve_method = Offline.Constraint_gen;
          envelope = (match beta with Some b -> Some (b, opt) | None -> None);
        }
      in
      match R3_core.Structured.compute cfg g tm groups Offline.Joint with
      | Error m ->
        Format.printf "%-10s failed: %s@."
          (match beta with Some b -> Printf.sprintf "%.2f" b | None -> "none")
          m
      | Ok plan ->
        let al_demands = Array.map (fun (a, b) -> tm.(a).(b)) plan.Offline.pairs in
        let normal =
          Routing.mlu g ~loads:(Routing.loads g ~demands:al_demands plan.Offline.base)
        in
        Format.printf "%-10s %14.3f %18.3f@."
          (match beta with Some b -> Printf.sprintf "%.2f" b | None -> "none")
          normal plan.Offline.mlu)
    [ None; Some 1.3; Some 1.1; Some 1.02 ];
  Format.printf
    "@.A tight envelope pins the normal-case MLU near optimal; loosening it \
     buys head-room for failures.@."
