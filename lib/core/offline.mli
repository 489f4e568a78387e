(** R3 offline precomputation (Section 3.1).

    Finds base routing [r] (optionally given) and protection routing [p]
    minimizing the maximum link utilization over the combined demand set
    [d + X_F], by either of two equivalent exact methods:

    - {b Dualized}: the paper's LP (7) — the inner maximization (5) is
      replaced by its LP dual, giving one polynomial-size program.
    - {b Constraint generation}: the semi-infinite program (3) is solved by
      cutting planes. The separation oracle is the inner maximization
      itself ({!Virtual_demand.worst_load}); violated scenarios are added
      as linear cuts until none remain. This avoids the [O(|E|^2)] dual
      variables and scales to larger topologies.

    Both methods solve the same optimization; tests assert they agree.

    {!compute_classes} is the one cutting-plane loop. It also solves the
    Section 3.5 extensions, which change only the envelope the oracle
    maximizes over: {!Structured} (SRLGs and MLGs, equation (18)) is one
    class with a {!Virtual_demand.Groups} envelope, and {!Priority}
    (equation (19)) one class per priority level.

    A {!config} holds only what the LP depends on and callers vary: the
    failure budget, the Section 3.5 penalty and delay envelopes, and the
    solver's method and budgets. The small objective weight that steers
    ties among optima away from loops and self-protection is a constant
    (1e-6) of this module. *)

type base_spec =
  | Joint  (** optimize [r] together with [p] (MPLS-ff style) *)
  | Fixed of R3_net.Routing.t
      (** [r] given (e.g. OSPF); commodities must match the traffic
          matrix's commodity order *)

type method_ = Dualized | Constraint_gen

type config = {
  f : int;  (** protect against up to [f] arbitrary link failures *)
  envelope : (float * float) option;
      (** [(beta, mlu_opt)]: bound the no-failure MLU by [beta *. mlu_opt]
          (Section 3.5, penalty envelope). Joint base only. *)
  delay_envelope : float option;
      (** [gamma]: bound each OD pair's mean propagation delay by [gamma]
          times its shortest-path delay. Joint base only. *)
  solve_method : method_;
  max_pivots : int option;  (** simplex pivot budget per LP solve *)
  cg_max_rounds : int;
      (** cut-generation rounds cap. Every round after the first
          re-solves warm through {!R3_lp.Problem.session}: dual-simplex
          repair of the previous basis, not a cold two-phase solve. *)
}

(** No envelopes, {!Dualized}, no pivot budget, 60 cut rounds. *)
val default_config : f:int -> config

type plan = {
  graph : R3_net.Graph.t;
  f : int;
  pairs : (R3_net.Graph.node * R3_net.Graph.node) array;  (** OD commodities *)
  demands : float array;  (** parallel to [pairs] *)
  base : R3_net.Routing.t;  (** r *)
  protection : R3_net.Routing.t;  (** p; commodity [e] protects link [e] *)
  mlu : float;  (** optimal MLU over [d + X_F]; congestion-free iff <= 1 *)
  lp_vars : int;
  lp_rows : int;
  lp_pivots : int;  (** total simplex pivots spent across all LP (re-)solves *)
}

(** Compute the plan for a traffic matrix. Fails with a message when the LP
    is infeasible (e.g. [f] failures can partition the graph) or hits its
    pivot budget. *)
val compute :
  config -> R3_net.Graph.t -> R3_net.Traffic.t -> base_spec -> (plan, string) result

(** As {!compute}, over the convex hull of several traffic matrices
    (Section 3.5, "handling traffic variations"): the returned routing is
    congestion-free for [d + X_F] for {e every} [d] in the hull. *)
val compute_multi :
  config ->
  R3_net.Graph.t ->
  R3_net.Traffic.t list ->
  base_spec ->
  (plan, string) result

(** [compute_classes ?spread cfg g classes base] minimizes the MLU so
    that every class's traffic matrix plus its envelope fits, by
    warm-started constraint generation ([cfg.solve_method] and [cfg.f]
    are not read). One shared [r] and [p] serve every class; commodities
    are the union of the matrices' supports, and the penalty and delay
    envelopes bound each matrix's no-failure routing. The plan's [f] is
    the largest class budget, its [demands] the per-pair maximum.

    [spread] (default [false]) adds a tie-break that prices each
    [p_l(e)] at [c_l / c_e] times a small weight, which balances
    per-event rerouted load among the optima. {!Structured.compute}
    passes it; [X_F] and prioritized plans do not.

    When [cfg.cg_max_rounds] runs out with cuts still violated, the plan
    reports its audited worst case (the max over classes of
    {!Virtual_demand.worst_mlu}), never the LP value, and the counter
    [offline.cg.budget_exhausted] moves by one. *)
val compute_classes :
  ?spread:bool ->
  config ->
  R3_net.Graph.t ->
  (R3_net.Traffic.t * Virtual_demand.envelope) list ->
  base_spec ->
  (plan, string) result
