(** Path Splicing (Motiwala et al., SIGCOMM 2008) — the paper's PathSplice
    baseline, with the paper's evaluation parameters: [k = 10] slices,
    [a = 0], [b = 3], and
    [Weight(a,b,i,j) = (degree i + degree j) / degree_max].

    Slice 0 uses the base weights; slice [s >= 1] perturbs each link weight
    by a factor in [1, 1 + b * Weight(i,j)] drawn deterministically from the
    slice seed. Traffic splits uniformly across slices at the ingress; when
    the slice next hop at a node is a failed link, the flow re-splits
    uniformly across the other slices whose next hop there is alive. Flow
    that exceeds the hop budget (loops between slices) is counted as lost. *)

val evaluate :
  R3_net.Graph.t ->
  failed:R3_net.Graph.link_set ->
  weights:float array ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  demands:float array ->
  unit ->
  Types.outcome
