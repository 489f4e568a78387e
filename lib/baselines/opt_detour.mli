(** Flow-based optimal link detour routing — the paper's "opt" baseline.

    For a {e specific} failure scenario, solves a small LP for the jointly
    optimal detours: each failed directed link's pre-failure load is
    rerouted from its head to its tail over the surviving topology so that
    the resulting MLU is minimized. This is the best any link-based
    protection can do for that scenario, but — as the paper stresses — it
    must be recomputed per scenario, which is why it serves only as a
    bound. Failed links whose endpoints are disconnected lose their
    traffic.

    The LP is {!R3_mcf.Flow_lp.min_mlu}: one commodity per loaded,
    reachable failed link, in link order, carrying that link's base load,
    over the base loads of the surviving links as background. The
    outcome's loads add each commodity's raw LP flows to the base loads
    in that order. *)

val evaluate :
  R3_net.Graph.t ->
  failed:R3_net.Graph.link_set ->
  base:R3_net.Routing.t ->
  demands:float array ->
  unit ->
  (Types.outcome, string) result

(** Optimal post-failure MLU only (convenience). *)
val mlu :
  R3_net.Graph.t ->
  failed:R3_net.Graph.link_set ->
  base:R3_net.Routing.t ->
  demands:float array ->
  unit ->
  (float, string) result
