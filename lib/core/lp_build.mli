(** Shared LP-construction helpers for the offline formulations.

    Routing variables follow the flow representation: commodity [k] has one
    variable per link, except links entering the commodity's origin, which
    condition [R3] of (1) forces to zero — those are simply not created. *)

type routing_vars = R3_lp.Problem.var option array array
(** [vars.(k).(e)] is [None] exactly when [R3] forces the fraction to 0. *)

(** Create the variables for all commodities. *)
val routing_vars :
  R3_lp.Problem.t ->
  R3_net.Graph.t ->
  prefix:string ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  routing_vars

(** Add [R1] (conservation) and [R2] (unit emission) rows for every
    commodity. *)
val routing_constraints :
  R3_lp.Problem.t ->
  R3_net.Graph.t ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  routing_vars ->
  unit

(** Read a solved routing back into the flow representation: each value
    clamped into [\[0, 1\]], each row filled once. *)
val extract_routing :
  R3_lp.Problem.solution ->
  R3_net.Graph.t ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  routing_vars ->
  R3_net.Routing.t

(** [(src l, dst l)] for every link — the commodities of the protection
    routing [p]. *)
val link_pairs : R3_net.Graph.t -> (R3_net.Graph.node * R3_net.Graph.node) array

(** Add a small penalty on every routing variable to suppress loops
    (the paper's "small penalty term including the sum of routing terms"). *)
val add_loop_penalty : R3_lp.Problem.t -> float -> routing_vars -> unit

(** Extra penalty on each protection commodity's {e self} term [p_e(e)].
    Routing a link's virtual demand over itself is the cheapest way to
    satisfy the constraints when the MLU cannot be driven below 1, but it
    means dropping the link's traffic on failure; pricing the self term
    above any multi-hop detour makes the LP choose real detours whenever
    they exist, without affecting feasibility or the optimal MLU. *)
val penalize_self_protection :
  R3_lp.Problem.t -> R3_net.Graph.t -> float -> routing_vars -> unit

(** Tie-break the protection routing toward spread-out virtual loads:
    add [weight * c_l / c_e] to each [p_l(e)] term. Among the many optima
    of the worst-case LP this prefers solutions whose {e per-event}
    rerouted load is balanced — the behaviour the paper reports
    (near-optimal for individual scenarios, not just the envelope max).
    [weight] must be small enough not to perturb the optimal MLU. *)
val penalize_virtual_concentration :
  R3_lp.Problem.t -> R3_net.Graph.t -> float -> routing_vars -> unit
