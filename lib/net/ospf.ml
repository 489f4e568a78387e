let unit_weights g = Array.make (Graph.num_links g) 1.0

let inv_cap_weights g =
  let max_cap = ref 0.0 in
  for e = 0 to Graph.num_links g - 1 do
    if Graph.capacity g e > !max_cap then max_cap := Graph.capacity g e
  done;
  Array.init (Graph.num_links g) (fun e -> !max_cap /. Graph.capacity g e)

let dag_tol = 1e-9

(* Per-destination shortest-path DAG membership: live link e = (i,j) is on a
   shortest path to dst iff dist_to(i) = w(e) + dist_to(j). *)
let on_dag g failed weights dist_to e =
  (not failed.(e))
  && dist_to.(Graph.src g e) < infinity
  && dist_to.(Graph.dst g e) < infinity
  && Float.abs (weights.(e) +. dist_to.(Graph.dst g e) -. dist_to.(Graph.src g e))
     <= dag_tol *. (1.0 +. dist_to.(Graph.src g e))

(* Propagate one unit of flow from [a] down the ECMP DAG toward [dst],
   splitting equally at every node. Nodes are processed in decreasing
   distance-to-destination order, which topologically orders the DAG. *)
let ecmp_fractions g failed weights dist_to ~a ~dst row =
  let n = Graph.num_nodes g in
  let node_flow = Array.make n 0.0 in
  node_flow.(a) <- 1.0;
  let order = Array.init n (fun v -> v) in
  Array.sort (fun u v -> Float.compare dist_to.(v) dist_to.(u)) order;
  Array.iter
    (fun v ->
      if node_flow.(v) > 0.0 && v <> dst && dist_to.(v) < infinity then begin
        let hops =
          Array.to_list (Graph.out_links g v)
          |> List.filter (on_dag g failed weights dist_to)
        in
        let k = List.length hops in
        if k > 0 then begin
          let share = node_flow.(v) /. float_of_int k in
          List.iter
            (fun e ->
              row.(e) <- row.(e) +. share;
              let w = Graph.dst g e in
              node_flow.(w) <- node_flow.(w) +. share)
            hops
        end
      end)
    order

let routing g ?failed ~weights ~pairs () =
  let failed = match failed with Some f -> f | None -> Graph.no_failures g in
  let t = Routing.create g ~pairs in
  let row = Array.make (Graph.num_links g) 0.0 in
  (* Group commodities by destination so each destination needs exactly one
     reverse-Dijkstra pass. *)
  let by_dst = Hashtbl.create 16 in
  Array.iteri
    (fun k (_, b) ->
      let l = Option.value (Hashtbl.find_opt by_dst b) ~default:[] in
      Hashtbl.replace by_dst b (k :: l))
    pairs;
  Hashtbl.iter
    (fun b ks ->
      let dist_to = Spf.distances_to g ~failed ~weights ~dst:b () in
      List.iter
        (fun k ->
          let a, _ = pairs.(k) in
          if dist_to.(a) < infinity then begin
            Array.fill row 0 (Array.length row) 0.0;
            ecmp_fractions g failed weights dist_to ~a ~dst:b row;
            Routing.set_row_dense t k row
          end)
        ks)
    by_dst;
  t
