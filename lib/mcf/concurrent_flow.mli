(** Approximate maximum concurrent flow / minimum MLU.

    Garg–Könemann / Fleischer multiplicative-weights FPTAS: repeatedly route
    each commodity along its current shortest path under exponential link
    lengths. The maximum concurrent throughput λ* satisfies
    [min-MLU = 1 / λ*], so this gives a (1+ε)-approximate optimal MLU — the
    "optimal flow-based routing" normalizer that the paper's performance
    ratio divides by, computed once per failure scenario.

    Accuracy: [mlu] is the MLU of a feasible routing, so it is never below
    the exact optimum ({!min_mlu_exact}), and the FPTAS guarantee bounds
    it by exact / (1 − ε)³, 1.204× at the evaluation's ε 0.06 — the bound
    the [mcf-bounds] fuzz oracle checks. Over 1,200 solves of 4–9-node
    fuzz cases at ε 0.06 it was at most 1.181× exact (+18.1%, a 7-node
    case with no failure), so ratios can read that much low.

    Cost: a solve builds one shortest-path tree per source per phase,
    plus one per extra path a commodity needs, and allocates nothing per
    tree or path. On the 2-vCPU host one SBC scenario (19 nodes, 342
    commodities, about 35,000 trees) takes 54–91 ms at ε 0.06, where
    {!min_mlu_exact} takes 10 s; pop36 scenarios take 1.0–1.5 s
    (DESIGN.md §5). *)

type result = {
  mlu : float;  (** approximately optimal maximum link utilization *)
  iterations : int;  (** shortest-path computations performed *)
  capped : bool;
      (** the solve stopped at {!max_iterations} before its dual reached
          1, so [mlu] overestimates the (1+ε) answer; counted by
          [mcf.capped] and recorded on the [mcf.solve] span *)
}

(** [500_000]: the shortest-path trees a solve may build. The loop checks
    the cap between phases, so a capped solve overshoots it by at most
    one phase. *)
val max_iterations : int

(** [min_mlu g ?failed ?epsilon ~pairs ~demands ()] ignores commodities made
    unreachable by [failed] (as the paper's optimal baseline does after a
    partition). [epsilon] defaults to 0.05. Returns [mlu = 0] when no
    demand is routable. *)
val min_mlu :
  R3_net.Graph.t ->
  ?failed:R3_net.Graph.link_set ->
  ?epsilon:float ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  demands:float array ->
  unit ->
  result

(** As {!min_mlu}, additionally extracting the (1+ε)-optimal fractional
    routing accumulated by the algorithm — a cheap near-optimal flow-based
    base routing (used as the MPLS-ff base where the joint LP (7) exceeds
    the simplex's practical range; see DESIGN.md §5). Unreachable or
    zero-demand commodities get all-zero rows. *)
val min_mlu_routing :
  R3_net.Graph.t ->
  ?failed:R3_net.Graph.link_set ->
  ?epsilon:float ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  demands:float array ->
  unit ->
  result * R3_net.Routing.t

(** Exact min-MLU: {!Flow_lp.min_mlu} with zero background, over the
    commodities with positive demand that [failed] leaves reachable.
    Dropped commodities get all-zero rows in the routing. The reference
    for tests and small instances: one column per (commodity, link), so a
    solve took 0.05 s on Abilene and 10 s on SBC (about 23,000
    columns). *)
val min_mlu_exact :
  R3_net.Graph.t ->
  ?failed:R3_net.Graph.link_set ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  demands:float array ->
  unit ->
  (float * R3_net.Routing.t, string) Stdlib.result
