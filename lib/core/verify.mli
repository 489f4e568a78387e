(** Independent verification of R3's guarantees.

    These checks do not reuse the LP: the worst-case virtual load has the
    closed knapsack form of {!Virtual_demand}, so the offline guarantee can
    be audited directly from the routing values, and the online guarantee
    by exhaustively (or randomly) applying failure scenarios. Every
    offline audit, here and in {!Structured} and {!Priority}, is
    {!Virtual_demand.worst_mlu}. *)

(** [offline_worst_mlu g ~f ~base_loads ~protection] is
    [max_e (base_loads(e) + sum of f largest c_l p_l(e)) / c_e] — the true
    MLU of the plan over [d + X_F]: {!Virtual_demand.worst_mlu} with
    [Links f]. Must match {!Offline.plan}'s [mlu] up to the loop-penalty
    tolerance (this equality is itself a check of the LP dualization). *)
val offline_worst_mlu :
  R3_net.Graph.t -> f:int -> base_loads:float array -> protection:R3_net.Routing.t -> float

(** [scenario_mlu plan links] applies the failure scenario (directed links)
    via online reconfiguration and returns the resulting real-traffic MLU. *)
val scenario_mlu : Offline.plan -> R3_net.Graph.link list -> float

(** [max_mlu_over_scenarios plan scenarios] is the worst {!scenario_mlu}. *)
val max_mlu_over_scenarios : Offline.plan -> R3_net.Graph.link list list -> float

(** Theorem 1 as an executable check: if [plan.mlu <= 1] then every
    scenario of at most [plan.f] directed-link failures keeps MLU <= 1.
    Returns [Error] describing the first violating scenario. Enumerates
    exhaustively when feasible, otherwise samples [samples] random
    scenarios with the given [seed]. *)
val check_theorem1 :
  ?samples:int -> ?seed:int -> ?tol:float -> Offline.plan -> (unit, string) result

(** Theorem 3 as an executable check: all permutations of the scenario
    yield identical final routings (up to [tol]).

    Caveat: the theorem's regime is drop-free reconfiguration. When a
    sequence partitions a destination, the doomed traffic blackholes at a
    head router that depends on the failure order, so upstream flows of
    {e lost} commodities legitimately differ between orders; apply this
    check only to scenarios where all traffic remains deliverable (e.g.
    guard with {!Reconfig.delivered_fraction}). *)
val check_order_independence :
  ?tol:float -> Offline.plan -> R3_net.Graph.link list -> (unit, string) result
