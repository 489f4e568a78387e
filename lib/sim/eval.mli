(** The evaluation engine behind Figures 3–10: run every protection
    algorithm on a failure scenario and report the bottleneck traffic
    intensity (worst live-link utilization), the performance ratio against
    optimal flow-based routing, and the delivered fraction.

    Single scenarios go through {!evaluate}; bulk sweeps (thousands of
    scenarios) go through [Sweep], which shares reconfiguration prefixes
    and memoizes the MCF normalizer. The normalizer's accuracy is the
    constant {!mcf_epsilon}, so an environment is just its inputs. *)

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

(** Precomputed inputs shared across scenarios. *)
type env = {
  graph : R3_net.Graph.t;
  weights : float array;  (** OSPF weights for the OSPF-based schemes *)
  pairs : (R3_net.Graph.node * R3_net.Graph.node) array;
  demands : float array;
  ospf_base : R3_net.Routing.t;
  ospf_r3 : R3_core.Offline.plan option;  (** plan with the OSPF base *)
  mplsff_r3 : R3_core.Offline.plan option;  (** plan with optimized base *)
}

(** The accuracy parameter (0.06) of the Garg–Könemann solve behind
    {!optimal} and {!mcf_cache}. *)
val mcf_epsilon : float

(** Build an environment: computes the OSPF routing; R3 plans are supplied
    by the caller (they may be shared across intervals). *)
val make_env :
  R3_net.Graph.t ->
  weights:float array ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  demands:float array ->
  ?ospf_r3:R3_core.Offline.plan ->
  ?mplsff_r3:R3_core.Offline.plan ->
  unit ->
  env

(** An {!Mcf_cache.t} keyed for this environment (pass [~dir:".bench-cache"]
    to persist across runs). *)
val mcf_cache : ?dir:string -> env -> Mcf_cache.t

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
    [cache] memoizes the expensive optimal-MCF solve (sequential use only);
    [with_optimal:false] skips it entirely ([optimal] is [nan], [ratio] is
    [None]). R3 rows require the corresponding plan in [env]. OSPF+opt
    raises [Failure], naming the failed links and the LP status, when its
    detour LP does not reach an optimum. *)
val evaluate :
  ?cache:Mcf_cache.t -> ?with_optimal:bool -> env -> algorithm -> Scenario.t -> result

(** Approximately optimal bottleneck intensity (flow-based optimal routing
    on the surviving topology), optionally memoized. *)
val optimal : ?cache:Mcf_cache.t -> env -> Scenario.t -> float

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
