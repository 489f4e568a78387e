(** Prefix-sharing parallel scenario sweeps — the bulk evaluation engine
    behind the paper's sorted-curve figures.

    The paper's evaluation replays thousands of failure scenarios (all one-
    and two-link failures plus sampled three/four-link ones). Evaluating
    each scenario independently rebuilds the R3 reconfiguration state from
    the pristine plan. This engine instead:

    - organizes the canonical scenarios ({!Scenario.t}) into a prefix tree
      over sorted physical-link combinations and walks it depth-first,
      advancing R3 states with the copy-on-write {!R3_core.Reconfig.fail}
      — Theorem 3 (order-independent rescaling) guarantees the state at a
      shared prefix is exactly the state every descendant scenario needs,
      and stepped states are bit-identical to per-scenario rebuilds;
    - fans the walk out over the forest's depth-1 subtrees with
      {!R3_util.Parallel.map}: each subtree is one serial depth-first
      walk, so at most one root-to-leaf path of states is live per
      domain, and concatenating the subtrees in child order reproduces
      the serial DFS preorder — results never depend on the pool size;
    - streams per-algorithm aggregates (sorted curves, undefined-ratio
      counts, worst-case witnesses) without retaining per-scenario states.

    Under [`Ratio] each distinct scenario solves the optimal-MCF
    normalizer (the exact per-destination LP behind {!Eval.optimal}) once,
    inside the walk.

    Output is bit-identical to the naive serial path (per-scenario
    {!Eval.evaluate}) for any pool size. *)

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
}

(** [run env ~algorithms scenarios] sweeps the deduplicated canonical
    scenario set. [metric] defaults to [`Ratio] (which is what solves the
    MCF normalizer; [`Bottleneck] never does). The walk runs on the
    shared pool at its current size ({!R3_util.Parallel.set_domains}).
    Duplicate scenarios are evaluated once. *)
val run :
  ?metric:metric ->
  Eval.env ->
  algorithms:Eval.algorithm list ->
  Scenario.t list ->
  summary

(** The sorted curves alone: for each algorithm, its per-scenario values
    sorted ascending (undefined ratios dropped; {!run} counts them). *)
val curves :
  ?metric:metric ->
  Eval.env ->
  algorithms:Eval.algorithm list ->
  Scenario.t list ->
  float array array
