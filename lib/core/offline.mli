(** R3 offline precomputation (Section 3.1).

    Finds base routing [r] (optionally given) and protection routing [p]
    minimizing the maximum link utilization over the combined demand set
    [d + X_F], by either of two equivalent exact methods:

    - {b Dualized}: the paper's LP (7) — the inner maximization (5) is
      replaced by its LP dual, giving one polynomial-size program.
    - {b Constraint generation}: the semi-infinite program (3) is solved by
      cutting planes. Because (5) is a unit-weight fractional knapsack, the
      exact separation oracle is "sum of the F largest [c_l * p_l(e)]"
      ({!Virtual_demand.worst_virtual_load_set}); violated scenarios are
      added as linear cuts until none remain. This avoids the [O(|E|^2)]
      dual variables and scales to larger topologies.

    Both methods solve the same optimization; tests assert they agree. *)

type base_spec =
  | Joint  (** optimize [r] together with [p] (MPLS-ff style) *)
  | Fixed of R3_net.Routing.t
      (** [r] given (e.g. OSPF); commodities must match the traffic
          matrix's commodity order *)

type method_ = Dualized | Constraint_gen

type config = {
  f : int;  (** protect against up to [f] arbitrary link failures *)
  loop_penalty : float;  (** small objective weight on routing terms *)
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
  core : Config.t;
      (** the unified seed/tolerance/pool bundle ({!Config.t}) *)
}

val default_config : f:int -> config

(** [with_core core cfg] swaps the {!Config.t} bundle — builder-style:
    [Offline.default_config ~f |> Offline.with_core Config.(default |> with_seed 7)]. *)
val with_core : Config.t -> config -> config

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
