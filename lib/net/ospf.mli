(** OSPF-style routing: shortest paths with equal-cost multi-path (ECMP)
    splitting, expressed in the flow representation. *)

(** Unit weights. *)
val unit_weights : Graph.t -> float array

(** Cisco-default weights: inversely proportional to capacity. *)
val inv_cap_weights : Graph.t -> float array

(** [routing g ?failed ~weights ~pairs] builds the ECMP flow routing for
    the given commodities on the surviving topology. Commodities whose
    destination is unreachable get an all-zero row (traffic is lost),
    matching OSPF behaviour under partition. *)
val routing :
  Graph.t ->
  ?failed:Graph.link_set ->
  weights:float array ->
  pairs:(Graph.node * Graph.node) array ->
  unit ->
  Routing.t
