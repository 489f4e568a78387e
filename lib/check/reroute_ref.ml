module G = R3_net.Graph
module P = R3_lp.Problem
module Flow_lp = R3_mcf.Flow_lp

let min_mlu g ~failed ~pairs ~demands ~background =
  let lp = P.create () in
  let mlu = P.var lp in
  let x = Flow_lp.add lp g ~failed ~pairs in
  for e = 0 to G.num_links g - 1 do
    if not failed.(e) then
      P.constr lp
        ((-.G.capacity g e, mlu) :: Flow_lp.load_terms x demands e)
        P.Le (-.background.(e))
  done;
  P.minimize lp [ (1.0, mlu) ];
  Flow_lp.add_penalty lp 1e-7 x;
  match P.solve lp with
  | P.Optimal sol -> Ok (sol.P.value mlu)
  | P.Infeasible -> Error "infeasible"
  | P.Unbounded -> Error "unbounded"
  | P.Iteration_limit -> Error "pivot budget exhausted"

let opt_detour_lp g ~failed ~base ~demands =
  let loads = R3_net.Routing.loads g ~demands base in
  let links =
    List.filter
      (fun e -> loads.(e) > 0.0 && (G.reachable g ~failed (G.src g e)).(G.dst g e))
      (G.failed_list failed)
    |> Array.of_list
  in
  (Array.map (fun e -> (G.src g e, G.dst g e)) links, Array.map (fun e -> loads.(e)) links, loads)
