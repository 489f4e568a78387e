let unit_weights g = Array.make (Graph.num_links g) 1.0

let inv_cap_weights g =
  let max_cap = ref 0.0 in
  for e = 0 to Graph.num_links g - 1 do
    if Graph.capacity g e > !max_cap then max_cap := Graph.capacity g e
  done;
  Array.init (Graph.num_links g) (fun e -> !max_cap /. Graph.capacity g e)

let routing g ?failed ~weights ~pairs () =
  let failed = match failed with Some f -> f | None -> Graph.no_failures g in
  let n = Graph.num_nodes g and m = Graph.num_links g in
  let t = Routing.create g ~pairs in
  let row = Array.make m 0.0 in
  let node_flow = Array.make n 0.0 in
  (* Commodities grouped by destination: each destination needs one
     reverse-Dijkstra pass, one distance order and one next-hop table. *)
  let by_dst = Array.make n [] in
  for k = Array.length pairs - 1 downto 0 do
    let _, b = pairs.(k) in
    by_dst.(b) <- k :: by_dst.(b)
  done;
  let order = Array.make n 0 in
  (* ECMP next hops of node v toward the destination: the DAG links
     [hop.(hop_start.(v)) .. hop.(hop_start.(v + 1) - 1)], in
     [Graph.out_links] order, with their heads in [hop_head]. *)
  let hop_start = Array.make (n + 1) 0 in
  let hop = Array.make m 0 and hop_head = Array.make m 0 in
  for b = 0 to n - 1 do
    if by_dst.(b) <> [] then begin
      let dist_to = Spf.distances_to g ~failed ~weights ~dst:b () in
      (* Decreasing distance to the destination topologically orders the
         DAG. *)
      for v = 0 to n - 1 do
        order.(v) <- v
      done;
      Array.sort (fun u v -> Float.compare dist_to.(v) dist_to.(u)) order;
      let fill = ref 0 in
      for v = 0 to n - 1 do
        hop_start.(v) <- !fill;
        if v <> b && dist_to.(v) < infinity then
          Array.iter
            (fun e ->
              if Spf.on_dag g failed weights dist_to e then begin
                hop.(!fill) <- e;
                hop_head.(!fill) <- Graph.dst g e;
                incr fill
              end)
            (Graph.out_links g v)
      done;
      hop_start.(n) <- !fill;
      (* Push one unit from the source down the DAG, splitting equally at
         every node. *)
      List.iter
        (fun k ->
          let a, _ = pairs.(k) in
          if dist_to.(a) < infinity then begin
            Array.fill row 0 m 0.0;
            Array.fill node_flow 0 n 0.0;
            node_flow.(a) <- 1.0;
            for i = 0 to n - 1 do
              let v = order.(i) in
              let lo = hop_start.(v) and hi = hop_start.(v + 1) in
              if node_flow.(v) > 0.0 && hi > lo then begin
                let share = node_flow.(v) /. float_of_int (hi - lo) in
                for j = lo to hi - 1 do
                  row.(hop.(j)) <- row.(hop.(j)) +. share;
                  let w = hop_head.(j) in
                  node_flow.(w) <- node_flow.(w) +. share
                done
              end
            done;
            Routing.set_row_dense t k row
          end)
        by_dst.(b)
    end
  done;
  t
