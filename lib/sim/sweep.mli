(** Prefix-sharing parallel scenario sweeps — the bulk evaluation engine
    behind the paper's sorted-curve figures.

    The paper's evaluation replays thousands of failure scenarios (all one-
    and two-link failures plus sampled three/four-link ones). Evaluating
    each scenario independently rebuilds the R3 reconfiguration state from
    the pristine plan and re-solves the optimal-MCF normalizer every time.
    This engine instead:

    - organizes the canonical scenarios ({!Scenario.t}) into a prefix tree
      over sorted physical-link combinations and walks it depth-first,
      advancing R3 states with the copy-on-write {!R3_core.Reconfig.fail}
      — Theorem 3 (order-independent rescaling) guarantees the state at a
      shared prefix is exactly the state every descendant scenario needs,
      and stepped states are bit-identical to per-scenario rebuilds;
    - fans out dynamically over the persistent work-stealing pool
      ({!R3_util.Pool}): every tree node becomes a task that submits its
      children as subtasks and awaits them in child order, so skewed
      prefix trees balance across domains and assembly reproduces the
      serial DFS preorder — results never depend on scheduling;
    - memoizes optimal-MCF solves in an {!Mcf_cache.t} (optionally disk-
      backed under [.bench-cache/]), reading it concurrently during the
      sweep and updating it once afterwards;
    - streams per-algorithm aggregates (sorted curves, undefined-ratio
      counts, worst-case witnesses) without retaining per-scenario states.

    Output is bit-identical to the naive serial path (per-scenario
    {!Eval.evaluate}) for any domain count. *)

type metric = [ `Bottleneck | `Ratio ]

type summary = {
  algorithms : Eval.algorithm array;
  metric : metric;
  scenario_count : int;  (** distinct scenarios evaluated *)
  curves : float array array;
      (** per algorithm: per-scenario values sorted ascending, undefined
          ratios dropped (see [undefined]) — the shape the paper's sorted
          figures plot *)
  undefined : int array;
      (** per algorithm: values dropped because the ratio was undefined
          (optimum 0) or non-finite *)
  worst : (Scenario.t * float) option array;
      (** per algorithm: a scenario attaining the worst (largest) value —
          the earliest one in tree order on ties *)
  mcf_hits : int;  (** optimal-MCF lookups served by the cache *)
  mcf_misses : int;  (** optimal-MCF solves performed by this run *)
}

(** [run env ~algorithms scenarios] sweeps the deduplicated canonical
    scenario set. [metric] defaults to [`Ratio] (which is what solves the
    MCF normalizer; [`Bottleneck] never does). [cache] memoizes those
    solves across runs. [domains = 1] forces the serial walk; any larger
    value (default: the pool size) fans out, one pool task per tree
    node. Both paths are bit-identical. Duplicate scenarios are
    evaluated once. *)
val run :
  ?cache:Mcf_cache.t ->
  ?metric:metric ->
  ?domains:int ->
  Eval.env ->
  algorithms:Eval.algorithm list ->
  Scenario.t list ->
  summary

(** The sorted curves alone: for each algorithm, its per-scenario values
    sorted ascending (undefined ratios dropped; {!run} counts them). *)
val curves :
  ?cache:Mcf_cache.t ->
  ?metric:metric ->
  ?domains:int ->
  Eval.env ->
  algorithms:Eval.algorithm list ->
  Scenario.t list ->
  float array array
