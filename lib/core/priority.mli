(** Prioritized resilient routing (Section 3.5, equation (19)).

    Each traffic class [i] carries the {e cumulative} demand [d_i] (all
    traffic requiring protection level [i] or higher) and a failure budget
    [f_i]; the plan must keep [d_i + X_{f_i}] congestion-free for every
    class simultaneously. One shared base routing [r] and protection
    routing [p] serve all classes; the per-class virtual-load duals are
    separate. Only the envelope differs per class, so a prioritized plan
    is {!Offline.compute_classes} with one class per level.

    Example from the paper: TPRT (real-time) protected against 3+ failures,
    TPP (private transport) against 2, general IP against 1 — pass
    [ (d_F + d_P + d_I, 1); (d_F + d_P, 2); (d_F, 3) ]. *)

type class_spec = {
  demand : R3_net.Traffic.t;  (** cumulative demand of this class and above *)
  f : int;  (** failure budget for this class *)
}

type plan = {
  plan : Offline.plan;  (** [plan.f] is the largest class budget *)
  class_mlus : float array;  (** per-class worst-case MLU over [d_i + X_{f_i}] *)
}

(** Solve with constraint generation: {!Offline.compute_classes} with one
    class per level, each with envelope [X_{f_i}]
    ({!Virtual_demand.Links}). The [f] and [solve_method] fields of
    [config] are ignored; its penalty and delay envelopes bound every
    class's no-failure routing, as in {!Offline.compute}.

    When [srlgs] is given, class [i]'s envelope is the structured one of
    equation (18) restricted to at most [f_i] concurrent SRLG events
    ({!Virtual_demand.Groups}) — e.g. pass {!Structured.physical_srlgs}
    to express "protect class [i] against [f_i] physical failures". *)
val compute :
  Offline.config ->
  R3_net.Graph.t ->
  ?srlgs:R3_net.Graph.link list list ->
  classes:class_spec list ->
  Offline.base_spec ->
  (plan, string) result

(** Audit: per-class worst-case MLU of an arbitrary plan,
    {!Virtual_demand.worst_mlu} under each class's envelope. *)
val audit_class_mlus :
  ?srlgs:R3_net.Graph.link list list ->
  classes:class_spec list ->
  Offline.plan ->
  float array
