(** The unit-flow LP block: the one builder of flow columns and their
    rows, shared by R3's base routing [r] and protection routing [p]
    (conditions [R1]–[R3] of (1)), the [opt] detour baseline and the
    exact min-MLU LPs. It has two shapes.

    Per pair ({!add}): commodity [k] routes one unit from its origin [a]
    to its destination [b]. It has one column per link, in link order,
    except on failed links and on links into [a], which condition [R3]
    forces to zero; those columns are not created. Its rows are the [R2]
    emit row at [a], then one [R1] conservation row per node other than
    [a] and [b], in node order.

    Per destination ({!min_mlu_dest}): one flow per destination [t] that
    carries every origin's demand toward [t] at once. It is exact
    wherever an LP reads only the link loads. *)

type t = R3_lp.Problem.var option array array
(** [x.(k).(e)] is commodity [k]'s fraction on link [e]; [None] exactly
    where no column exists. *)

(** [add lp g ~failed ~pairs] appends each commodity's columns and then
    its rows, in commodity order. *)
val add :
  R3_lp.Problem.t ->
  R3_net.Graph.t ->
  failed:R3_net.Graph.link_set ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  t

(** [load_terms x demands e] is link [e]'s load [sum_k d_k x_k(e)] as LP
    terms, over the commodities with positive demand. *)
val load_terms : t -> float array -> R3_net.Graph.link -> (float * R3_lp.Problem.var) list

(** [add_penalty lp weight x] adds [weight] times every flow column to
    the objective: the paper's "small penalty term including the sum of
    routing terms", which suppresses loops. *)
val add_penalty : R3_lp.Problem.t -> float -> t -> unit

(** Read a solved block back as a routing: each value clamped into
    [\[0, 1\]], each row filled once. *)
val routing :
  R3_lp.Problem.solution ->
  R3_net.Graph.t ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  t ->
  R3_net.Routing.t

(** [(src l, dst l)] for every link — the commodities of the protection
    routing [p]. *)
val link_pairs : R3_net.Graph.t -> (R3_net.Graph.node * R3_net.Graph.node) array

(** The reroute LP: route every commodity's [demands.(k)] over the links
    that survive [failed], on top of a fixed [background] load per link,
    minimizing the MLU. Columns are the MLU, then the block; rows are the
    block's, then one capacity row per surviving link,
    [sum_k d_k x_k(e) - c_e MLU <= -background(e)], with or without flow
    terms. Every flow column carries a 1e-7 loop penalty. Returns the MLU
    and each commodity's raw LP value per link (0 where no column
    exists), or the LP status when it is not optimal. Every commodity
    must be reachable from its origin over the surviving links.

    It starts from a triangular, primal-feasible basis built from
    shortest detours: per commodity [(a, b)], the hop-count in-tree
    toward [b] over the links it has columns on, each node's tree arc
    its first link (in link order) one hop closer, as in
    {!min_mlu_dest}. [a]'s tree arc is basic in the emit row and every
    other node's in its conservation row; the unit rides the [a]-to-[b]
    tree path and the other tree arcs carry 0. A node that cannot reach
    [b] keeps its artificial at 0. The MLU is basic in the capacity row
    of the link with the largest (background + start load) / capacity,
    the first on ties, and every other capacity row starts on its slack
    or surplus. Phase 1 then has nothing to do. Counted by
    [mcf.reroute_solves] and traced as [mcf.reroute_solve], with the
    commodity count as an attribute. *)
val min_mlu :
  R3_net.Graph.t ->
  failed:R3_net.Graph.link_set ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  demands:float array ->
  background:float array ->
  (float * float array array, string) result

(** The exact optimal flow-based MLU over the links that survive
    [failed] — the normalizer of the paper's performance ratio. Demand
    of a pair that [failed] disconnects is dropped; with none left the
    MLU is 0.

    The per-destination LP: one column [f_t(e)] per destination [t] with
    demand and per surviving link [e] not leaving [t]; for every node
    [v <> t] one row [out - in = D(v, t)], the demand of [v] toward [t];
    then one capacity row [sum_t f_t(e) - c_e MLU <= 0] per surviving
    link. It minimizes the MLU alone, with no loop penalty.

    It starts from a triangular, primal-feasible basis: each node's
    first link (in link order) on a hop-count shortest path toward [t],
    carrying its subtree's demand; the MLU in the capacity row of the
    link those trees load most; slacks elsewhere. Counted by
    [mcf.dest_solves] and traced as [mcf.dest_solve]. Returns the LP
    status when it is not optimal. *)
val min_mlu_dest :
  R3_net.Graph.t ->
  failed:R3_net.Graph.link_set ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  demands:float array ->
  (float, string) result
