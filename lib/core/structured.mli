(** Realistic failure scenarios: shared-risk link groups and maintenance
    link groups (Section 3.5, equation (18)).

    The rerouted-traffic envelope is restricted to what at most [k]
    concurrent SRLG events plus at most one MLG event can produce: a link
    not covered by any down group carries no virtual demand. As in the
    paper we solve the LP relaxation of (18), which upper-bounds the
    integral worst case (conservative, still congestion-free).

    The envelope and its oracle live in {!Virtual_demand}; a structured
    plan is one {!Virtual_demand.Groups} class of
    {!Offline.compute_classes}, the one cutting-plane loop. *)

type groups = Virtual_demand.groups = {
  srlgs : R3_net.Graph.link list list;  (** shared-risk groups *)
  mlgs : R3_net.Graph.link list list;  (** maintenance groups *)
  k : int;  (** max concurrent SRLG events *)
}

(** One SRLG per physical link: [[e; reverse e]] (or [[e]] for a link
    without a reverse), ascending in the lower id [e]. With [k] events
    this is "any [k] physical failures". The order matters: the greedy
    oracle breaks ties by group order. *)
val physical_srlgs : R3_net.Graph.t -> R3_net.Graph.link list list

(** Worst-case virtual load on a fixed link given per-link weights
    [w_l = c_l * p_l(e)]: {!Virtual_demand.worst_group_load}, the value of
    the LP relaxation of (18) and the optimal fractional failure
    intensities [y_l = x_l / c_l] per link, which are the coefficients of
    the corresponding cutting plane. *)
val worst_structured_load : groups -> float array -> float * float array

(** Offline computation under structured failures, by constraint
    generation ([config.f] and [config.solve_method] are ignored;
    [groups.k] plays the role of [f]): {!Offline.compute_classes} with
    [~spread:true]. The resulting plan's [f] field is set to [groups.k]. *)
val compute :
  Offline.config ->
  R3_net.Graph.t ->
  R3_net.Traffic.t ->
  groups ->
  Offline.base_spec ->
  (Offline.plan, string) result

(** Audit the worst-case MLU of a plan under the structured envelope
    ({!Virtual_demand.worst_mlu}). *)
val audit_mlu : Offline.plan -> groups -> float
