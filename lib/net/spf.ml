(* O(n^2) Dijkstra: the topologies in this repository have at most a few
   hundred nodes, where the simple scan beats heap overhead. *)

let check_weights g weights =
  if Array.length weights <> Graph.num_links g then
    invalid_arg "Spf: weights length mismatch";
  Array.iter (fun w -> if w <= 0.0 then invalid_arg "Spf: weights must be positive") weights

let dijkstra g failed weights ~start ~links_of ~other_end =
  let n = Graph.num_nodes g in
  let dist = Array.make n infinity in
  let visited = Array.make n false in
  dist.(start) <- 0.0;
  let rec loop () =
    let best = ref (-1) and best_d = ref infinity in
    for v = 0 to n - 1 do
      if (not visited.(v)) && dist.(v) < !best_d then begin
        best := v;
        best_d := dist.(v)
      end
    done;
    if !best >= 0 then begin
      let u = !best in
      visited.(u) <- true;
      Array.iter
        (fun e ->
          if not failed.(e) then begin
            let v = other_end e in
            let nd = dist.(u) +. weights.(e) in
            if nd < dist.(v) then dist.(v) <- nd
          end)
        (links_of u);
      loop ()
    end
  in
  loop ();
  dist

let distances g ?failed ~weights ~src () =
  check_weights g weights;
  let failed = match failed with Some f -> f | None -> Graph.no_failures g in
  dijkstra g failed weights ~start:src
    ~links_of:(Graph.out_links g)
    ~other_end:(Graph.dst g)

let distances_to g ?failed ~weights ~dst () =
  check_weights g weights;
  let failed = match failed with Some f -> f | None -> Graph.no_failures g in
  dijkstra g failed weights ~start:dst
    ~links_of:(Graph.in_links g)
    ~other_end:(Graph.src g)

let dag_tol = 1e-9

let on_dag g failed weights dist_to e =
  (not failed.(e))
  && dist_to.(Graph.src g e) < infinity
  && dist_to.(Graph.dst g e) < infinity
  && Float.abs (weights.(e) +. dist_to.(Graph.dst g e) -. dist_to.(Graph.src g e))
     <= dag_tol *. (1.0 +. dist_to.(Graph.src g e))

let in_tree g ~failed ~weights ~dst =
  let dist = distances_to g ~failed ~weights ~dst () in
  let on_dag = on_dag g failed weights dist in
  let next =
    Array.init (Graph.num_nodes g) (fun v ->
        if v = dst then -1
        else Option.value ~default:(-1) (Array.find_opt on_dag (Graph.out_links g v)))
  in
  (dist, next)

let shortest_path g ?failed ~weights ~src ~dst () =
  let failed = match failed with Some f -> f | None -> Graph.no_failures g in
  let _, next = in_tree g ~failed ~weights ~dst in
  let rec walk v acc =
    if v = dst then Some (List.rev acc)
    else if next.(v) < 0 then None
    else walk (Graph.dst g next.(v)) (next.(v) :: acc)
  in
  walk src []

let min_propagation_delay g ?failed ~src ~dst () =
  let delays = Array.init (Graph.num_links g) (fun e -> Float.max (Graph.delay g e) 1e-9) in
  let d = distances g ?failed ~weights:delays ~src () in
  d.(dst)
