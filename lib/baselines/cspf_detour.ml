module G = R3_net.Graph
module Routing = R3_net.Routing

let evaluate g ~failed ~weights ~base ~demands () =
  let base_loads = Routing.loads g ~demands base in
  let loads = Array.copy base_loads in
  let total_demand = Array.fold_left ( +. ) 0.0 demands in
  let lost = ref 0.0 in
  (* Remove the failed links' loads and re-add them along the bypass. *)
  for e = 0 to G.num_links g - 1 do
    if failed.(e) && base_loads.(e) > 0.0 then begin
      loads.(e) <- 0.0;
      match
        R3_net.Spf.shortest_path g ~failed ~weights ~src:(G.src g e)
          ~dst:(G.dst g e) ()
      with
      | Some path -> List.iter (fun l -> loads.(l) <- loads.(l) +. base_loads.(e)) path
      | None -> lost := !lost +. base_loads.(e)
    end
  done;
  (* [lost] is load, not demand; convert to a conservative delivered
     fraction relative to total demand (a lost link-load unit corresponds
     to at least that much undelivered demand). *)
  let delivered =
    if total_demand <= 0.0 then 1.0
    else Float.max 0.0 (1.0 -. (!lost /. total_demand))
  in
  { Types.loads; delivered }

let protection g =
  let weights = R3_net.Ospf.unit_weights g in
  let p = Routing.create g ~pairs:(R3_mcf.Flow_lp.link_pairs g) in
  for l = 0 to G.num_links g - 1 do
    match
      R3_net.Spf.shortest_path g ~failed:(G.fail_links g [ l ]) ~weights ~src:(G.src g l)
        ~dst:(G.dst g l) ()
    with
    | Some path -> List.iter (fun e -> Routing.set p l e 1.0) path
    | None -> Routing.set p l l 1.0
  done;
  p
