(** Shortest-path first (Dijkstra) over link weights, failure-aware. *)

(** [distances g ?failed ~weights ~src] returns per-node distance from
    [src]; unreachable nodes get [infinity]. [weights] is per-link and must
    be positive. *)
val distances :
  Graph.t -> ?failed:Graph.link_set -> weights:float array -> src:Graph.node -> unit
  -> float array

(** Distances {e to} [dst] (Dijkstra on the reversed graph). *)
val distances_to :
  Graph.t -> ?failed:Graph.link_set -> weights:float array -> dst:Graph.node -> unit
  -> float array

(** {2 The shortest-path DAG}

    Every shortest-path router here (ECMP OSPF, the CSPF bypass, FCP,
    PathSplice's slices, the flow LPs' start trees) routes on the DAG of
    all shortest paths toward a destination, and every single-path one
    breaks its ties the same way: the lowest link id, that is the first
    DAG link in {!Graph.out_links} order. *)

(** [on_dag g failed weights dist_to e]: live link [e = (i, j)] is on a
    shortest path toward the destination of [dist_to] (from
    {!distances_to}), that is [dist_to.(i) = w(e) + dist_to.(j)] to a
    relative tolerance of 1e-9, with both ends in reach. *)
val on_dag : Graph.t -> Graph.link_set -> float array -> float array -> Graph.link -> bool

(** [in_tree g ~failed ~weights ~dst] is the distances to [dst]
    ({!distances_to}) and each node's lowest-id live DAG out-link, -1 at
    [dst] and where [dst] is out of reach. *)
val in_tree :
  Graph.t ->
  failed:Graph.link_set ->
  weights:float array ->
  dst:Graph.node ->
  float array * Graph.link array

(** One shortest path as a link list along {!in_tree}'s links, or [None]
    if unreachable. *)
val shortest_path :
  Graph.t ->
  ?failed:Graph.link_set ->
  weights:float array ->
  src:Graph.node ->
  dst:Graph.node ->
  unit ->
  Graph.link list option

(** Smallest end-to-end propagation delay between two nodes (uses link
    delays as weights); [infinity] if unreachable. *)
val min_propagation_delay :
  Graph.t -> ?failed:Graph.link_set -> src:Graph.node -> dst:Graph.node -> unit -> float
