(** Failure-scenario generation (Section 5.1).

    The paper enumerates all single- and two-link failures and randomly
    samples ~1100 three- and four-link scenarios. Failures are {e physical}:
    a failed link takes its reverse direction down with it. Scenarios are
    the canonical {!Scenario.t}. *)

(** Canonical physical links: one directed representative per bidirectional
    pair (the lower id), plus any unpaired directed links. *)
val physical_links : R3_net.Graph.t -> R3_net.Graph.link array

(** All scenarios failing exactly [k] physical links, in lexicographic
    (sweep-tree DFS) order. Scenarios that partition the graph are kept —
    algorithms must cope. Raises [Invalid_argument] if [k < 0]. *)
val enumerate : R3_net.Graph.t -> k:int -> Scenario.t list

(** [sample g ~k ~count ~seed] distinct random scenarios of [k] physical
    links. Deterministic in [seed]. Returns exactly [min count C(n,k)] scenarios except
    in one documented case: when the space is too large to enumerate yet
    rejection sampling exhausts its [100 * count]-attempt guard (possible
    only when [count] is close to [C(n,k)]), the result is shorter. Such
    a shortfall is never silent — the missing scenario count is added to
    the [sim.scenarios.sample_shortfall] metrics counter. Raises
    [Invalid_argument] if [k < 0]. *)
val sample :
  R3_net.Graph.t -> k:int -> count:int -> seed:int -> Scenario.t list

(** Single failure events from structured groups (SRLGs, MLGs): each group
    becomes one canonical scenario. *)
val of_groups :
  R3_net.Graph.t -> R3_net.Graph.link list list -> Scenario.t list

(** Drop scenarios that disconnect the graph (used where the paper's metric
    is only defined on connected survivors). *)
val connected : R3_net.Graph.t -> Scenario.t list -> Scenario.t list
