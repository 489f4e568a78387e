(** The unit-flow LP block: the one builder of flow columns and their
    rows, shared by R3's base routing [r] and protection routing [p]
    (conditions [R1]–[R3] of (1)), the [opt] detour baseline and the
    exact min-MLU LP.

    Commodity [k] routes one unit from its origin [a] to its
    destination [b]. It has one column per link, in link order, except on
    failed links and on links into [a], which condition [R3] forces to
    zero; those columns are not created. Its rows are the [R2] emit row
    at [a], then one [R1] conservation row per node other than [a] and
    [b], in node order. *)

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
    must be reachable from its origin over the surviving links. *)
val min_mlu :
  R3_net.Graph.t ->
  failed:R3_net.Graph.link_set ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  demands:float array ->
  background:float array ->
  (float * float array array, string) result
