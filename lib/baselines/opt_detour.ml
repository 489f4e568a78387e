module G = R3_net.Graph
module Routing = R3_net.Routing

let evaluate g ~failed ~base ~demands () =
  let base_loads = Routing.loads g ~demands base in
  let failed_links =
    List.filter (fun e -> base_loads.(e) > 0.0) (G.failed_list failed)
  in
  (* Commodities: failed links with positive load and connected endpoints. *)
  let routable, lost =
    List.partition
      (fun e -> (G.reachable g ~failed (G.src g e)).(G.dst g e))
      failed_links
  in
  let routable = Array.of_list routable in
  match
    R3_mcf.Flow_lp.min_mlu g ~failed
      ~pairs:(Array.map (fun e -> (G.src g e, G.dst g e)) routable)
      ~demands:(Array.map (fun e -> base_loads.(e)) routable)
      ~background:base_loads
  with
  | Error status -> Error ("opt-detour: " ^ status)
  | Ok (_, flows) ->
    let loads = Array.copy base_loads in
    List.iter (fun e -> loads.(e) <- 0.0) failed_links;
    Array.iteri
      (fun i fe ->
        Array.iteri (fun e x -> loads.(e) <- loads.(e) +. (base_loads.(fe) *. x)) flows.(i))
      routable;
    let total = Array.fold_left ( +. ) 0.0 demands in
    let lost_load = List.fold_left (fun a e -> a +. base_loads.(e)) 0.0 lost in
    let delivered =
      if total <= 0.0 then 1.0 else Float.max 0.0 (1.0 -. (lost_load /. total))
    in
    Ok { Types.loads; delivered }

let mlu g ~failed ~base ~demands () =
  match evaluate g ~failed ~base ~demands () with
  | Ok outcome -> Ok (Types.bottleneck g ~failed outcome)
  | Error _ as e -> e
