module G = R3_net.Graph

type config = { detection_ms : float; per_hop_ms : float }

let default_config = { detection_ms = 30.0; per_hop_ms = 1.0 }

let arrival_times g ~failed ~link =
  let weights =
    Array.init (G.num_links g) (fun e ->
        Float.max 1e-6 (G.delay g e +. default_config.per_hop_ms))
  in
  let head = G.src g link in
  let dist = R3_net.Spf.distances g ~failed ~weights ~src:head () in
  Array.map (fun d -> default_config.detection_ms +. d) dist

let convergence_time g ~failed ~link =
  let times = arrival_times g ~failed ~link in
  Array.fold_left
    (fun acc t -> if t < infinity then Float.max acc t else acc)
    0.0 times
