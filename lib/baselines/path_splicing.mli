(** Path Splicing (Motiwala et al., SIGCOMM 2008) — the paper's PathSplice
    baseline, with the paper's evaluation parameters: [k = 10] slices,
    [a = 0], [b = 3], and
    [Weight(a,b,i,j) = (degree i + degree j) / degree_max].

    Slice 0 uses the base weights. Slice [s >= 1] multiplies each link
    weight by [max 0.5 (u * b * Weight(i,j))], with [u] drawn uniformly
    from \[0, 1) by a fixed-seed generator, slice by slice and link by
    link. Each slice routes toward a destination on one next hop per
    node: the lowest link id on its shortest-path DAG. These tables are
    built on the unfailed topology, once per (graph, weights), by
    {!create}.

    Every demand starts on slice 0 at its ingress. When a flow's slice
    has no live next hop at a node, the flow re-splits uniformly across
    the other slices whose next hop there is alive, and is lost if there
    is none. Flow below 1e-9, and flow still in flight after [10 n] hops
    (loops between slices), is lost. *)

type t

(** [create g ~weights] builds the slice weights and every destination's
    next-hop tables. *)
val create : R3_net.Graph.t -> weights:float array -> t

(** Propagate each pair's demand over [t]'s tables with the links in
    [failed] down. *)
val evaluate :
  t ->
  failed:R3_net.Graph.link_set ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  demands:float array ->
  Types.outcome
