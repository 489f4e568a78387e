(** The evaluation engine behind Figures 3–10: run every protection
    algorithm on a failure scenario and report the bottleneck traffic
    intensity (worst live-link utilization), the performance ratio against
    optimal flow-based routing, and the delivered fraction.

    Single scenarios go through {!evaluate}; bulk sweeps (thousands of
    scenarios) go through [Sweep], which shares reconfiguration prefixes.
    The normalizer is the exact per-destination LP
    {!R3_mcf.Flow_lp.min_mlu_dest}, solved on every call and memoized
    nowhere, so an environment is its inputs and what depends on them
    alone: the OSPF routing and PathSplice's tables. *)

type algorithm =
  | Ospf_cspf_detour  (** OSPF base + CSPF fast-reroute bypasses *)
  | Ospf_recon  (** OSPF reconvergence on the surviving topology *)
  | Fcp  (** failure-carrying packets *)
  | Path_splice  (** path splicing, k=10 slices *)
  | Ospf_r3  (** R3 protection over the OSPF base routing *)
  | Ospf_opt  (** per-scenario optimal link detour over the OSPF base *)
  | Mplsff_r3  (** R3 protection over the jointly-optimized base *)

val algorithm_name : algorithm -> string

val all_algorithms : algorithm list

(** Precomputed inputs shared across scenarios. Private, so only
    {!make_env} builds one and its tables match its weights. *)
type env = private {
  graph : R3_net.Graph.t;
  weights : float array;  (** OSPF weights for the OSPF-based schemes *)
  pairs : (R3_net.Graph.node * R3_net.Graph.node) array;
  demands : float array;
  ospf_base : R3_net.Routing.t;
  path_splice : R3_baselines.Path_splicing.t;
      (** PathSplice's slice tables on [weights] *)
  ospf_r3 : R3_core.Offline.plan option;  (** plan with the OSPF base *)
  mplsff_r3 : R3_core.Offline.plan option;  (** plan with optimized base *)
}

(** Build an environment: computes the OSPF routing and PathSplice's
    tables, both eagerly, so pool domains share them read-only; R3 plans
    are supplied by the caller (they may be shared across intervals). *)
val make_env :
  R3_net.Graph.t ->
  weights:float array ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  demands:float array ->
  ?ospf_r3:R3_core.Offline.plan ->
  ?mplsff_r3:R3_core.Offline.plan ->
  unit ->
  env

(** Everything {!evaluate} knows about one (algorithm, scenario) pair. *)
type result = {
  bottleneck : float;  (** worst live-link utilization *)
  optimal : float;  (** optimal flow-based bottleneck; [nan] if skipped *)
  ratio : float option;  (** [bottleneck /. optimal]; [None] when the
                             optimum is 0 (the ratio is undefined) or when
                             the optimum was skipped *)
  delivered : float;  (** fraction of total demand delivered, in [0,1] *)
}

(** [evaluate env alg scenario] — the single-scenario evaluation API.
    [with_optimal:false] skips the optimal-MCF solve ([optimal] is [nan],
    [ratio] is [None]). R3 rows require the corresponding plan in [env].
    OSPF+opt raises [Failure], naming the failed links and the LP status,
    when its detour LP does not reach an optimum. *)
val evaluate : ?with_optimal:bool -> env -> algorithm -> Scenario.t -> result

(** Optimal bottleneck intensity: the exact minimum MLU of flow-based
    routing on the surviving topology ({!R3_mcf.Flow_lp.min_mlu_dest}),
    with the demand of disconnected pairs dropped. Raises [Failure],
    naming the failed links and the LP status, when the LP does not
    reach an optimum. *)
val optimal : env -> Scenario.t -> float

(** {2 Building blocks for the bulk sweep engine}

    Most callers want {!evaluate}; these expose the pieces [Sweep] composes
    differently. *)

(** Bottleneck intensity only — {!evaluate} without the optimal solve or
    delivery accounting. *)
val scenario_bottleneck : env -> algorithm -> Scenario.t -> float

(** The pristine {!R3_core.Reconfig} root for an R3 algorithm, with the
    env's demands aligned onto the plan's commodities — the state the sweep
    engine steps through the scenario tree. [None] for the per-scenario
    algorithms; raises [Invalid_argument] if the required plan is missing. *)
val r3_root : env -> algorithm -> R3_core.Reconfig.state option
