(* Tests for the traffic-engineering layer: Fortz-Thorup-style weight
   search and the piecewise-linear cost. *)

module G = R3_net.Graph
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Igp = R3_te.Igp_opt

let test_link_cost_convex_increasing () =
  let cap = 100.0 in
  let prev = ref (-1.0) in
  let prev_slope = ref 0.0 in
  for i = 0 to 24 do
    let load = float_of_int i *. 6.0 in
    let c = Igp.link_cost ~load ~capacity:cap in
    if c < !prev -. 1e-9 then Alcotest.failf "cost decreased at load %g" load;
    let slope = c -. !prev in
    if i > 1 && slope < !prev_slope -. 1e-6 then
      Alcotest.failf "cost not convex at load %g" load;
    prev := c;
    prev_slope := slope
  done

let test_optimize_improves () =
  let g = Topology.usisp_like () in
  let rng = R3_util.Prng.create 71 in
  let tm = Traffic.gravity rng g ~load_factor:0.5 () in
  let initial = R3_net.Ospf.inv_cap_weights g in
  let cost0 = Igp.routing_cost g ~weights:initial tm in
  let config = { Igp.default_config with Igp.iterations = 250; seed = 5 } in
  let weights = Igp.optimize ~config g [ tm ] in
  let cost1 = Igp.routing_cost g ~weights tm in
  Alcotest.(check bool)
    (Printf.sprintf "cost improved or equal (%.1f -> %.1f)" cost0 cost1)
    true
    (cost1 <= cost0 +. 1e-6)

(* The search keeps a move only if it lowers the cost, so the cost never
   rises from its start (the quantized inverse-capacity weights, which
   [iterations = 0] returns). A longer run with the same seed continues
   a shorter one, so the cost is nonincreasing in [iterations]. *)
let test_optimize_cost_never_rises () =
  let g = Topology.usisp_like () in
  let rng = R3_util.Prng.create 72 in
  let tm = Traffic.gravity rng g ~load_factor:0.5 () in
  let cost_after iterations =
    let config = { Igp.default_config with Igp.iterations; seed = 6 } in
    Igp.routing_cost g ~weights:(Igp.optimize ~config g [ tm ]) tm
  in
  ignore
    (List.fold_left
       (fun prev iterations ->
         let c = cost_after iterations in
         if c > prev then Alcotest.failf "cost rose to %.6g after %d moves" c iterations;
         c)
       (cost_after 0) [ 50; 100; 250 ])

let test_weights_positive_symmetric () =
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 73 in
  let tm = Traffic.gravity rng g ~load_factor:0.4 () in
  let weights = Igp.optimize ~config:{ Igp.default_config with Igp.iterations = 100 } g [ tm ] in
  Array.iteri
    (fun e w ->
      if w < 1.0 -. 1e-9 then Alcotest.failf "weight %g below 1 on link %d" w e;
      match G.reverse_link g e with
      | Some r ->
        if Float.abs (weights.(r) -. w) > 1e-9 then
          Alcotest.failf "asymmetric weights on %d/%d" e r
      | None -> ())
    weights

let suite =
  [
    Alcotest.test_case "link cost convex increasing" `Quick test_link_cost_convex_increasing;
    Alcotest.test_case "local search improves cost" `Quick test_optimize_improves;
    Alcotest.test_case "cost never rises from the start" `Quick test_optimize_cost_never_rises;
    Alcotest.test_case "weights positive and symmetric" `Quick test_weights_positive_symmetric;
  ]
