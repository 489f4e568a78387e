(** The rerouting virtual demand sets of R3 and their separation oracles.

    The arbitrary-failure envelope [X_F] of equation (2):

    {v X_F = { x | 0 <= x_e/c_e <= 1 for all e,  sum_e x_e/c_e <= F } v}

    and the structured envelope of equation (18) (Section 3.5): what at
    most [k] concurrent SRLG events plus at most one MLG event can
    produce. Both enter the offline problem only through one oracle, the
    inner maximization (5): the worst-case virtual load on a link [e]
    under protection routing [p]. For [X_F] it has a closed form (a
    fractional knapsack with unit weights: the sum of the [F] largest
    [c_l * p_l(e)]); for (18) it is the LP relaxation, solved greedily
    for disjoint SRLGs and as a small LP otherwise. {!worst_load} powers
    {!Offline.compute_classes}' cutting planes and {!worst_mlu} every
    audit of a finished plan. *)

(** {2 Envelopes} *)

type groups = {
  srlgs : R3_net.Graph.link list list;  (** shared-risk groups *)
  mlgs : R3_net.Graph.link list list;  (** maintenance groups *)
  k : int;  (** max concurrent SRLG events *)
}

type envelope =
  | Links of int  (** [X_F]: any [F] directed links, equation (2) *)
  | Groups of groups  (** [k] SRLG events plus one MLG event, equation (18) *)

(** The envelope's failure budget: [F], or [k]. A plan's [f] field. *)
val budget : envelope -> int

(** [member g ~f x] checks x in X_F (x indexed by link). *)
val member : R3_net.Graph.t -> f:int -> float array -> bool

(** Extreme points of [X_F] on small graphs: every subset of at most [f]
    links at full capacity. Exponential — intended for tests; raises
    [Invalid_argument] when there would be more than [limit] (default
    200_000) points. *)
val extreme_points : ?limit:int -> R3_net.Graph.t -> f:int -> float array list

(** {2 The oracle} *)

(** [weight_columns g p] is the knapsack weights of every link at once:
    [(weight_columns g p).(e).(l) = c_l * p_l(e)], with [+0.0] where row
    [l] of the protection routing [p] stores nothing at [e]. Built in one
    pass over the rows of [p] (a per-entry [Routing.get] loop would
    search every row for every link). The oracles below only read their
    weights, so one matrix serves every separation task of a round. *)
val weight_columns : R3_net.Graph.t -> R3_net.Routing.t -> float array array

(** [worst_virtual_load ~f weights] where [weights.(l) = c_l * p_l(e)]
    for a fixed link [e]: the optimal objective of (5), i.e. the sum of the
    [f] largest weights. *)
val worst_virtual_load : f:int -> float array -> float

(** As above but also returning the argmax set of links (the adversarial
    failure scenario for this link), largest first. *)
val worst_virtual_load_set : f:int -> float array -> float * int list

(** [worst_load env weights] is the worst-case virtual load on a fixed
    link under [env], and the cut's support: the optimal failure
    intensities [y_l = x_l / c_l] as [(l, y_l)] pairs, ascending in [l],
    nonzero entries only. The cutting plane of the offline loop is
    [sum_l y_l c_l p_l(e)]. For [Links f] the support is the [f]
    heaviest links at intensity 1; for [Groups] it is every link of the
    chosen groups (greedy path: disjoint SRLGs, no MLGs — the LP
    relaxation is then integral), or the small LP's optimum otherwise. *)
val worst_load : envelope -> float array -> float * (int * float) list

(** [worst_group_load groups weights] is [worst_load (Groups groups)]
    with the intensities as a dense array over links. *)
val worst_group_load : groups -> float array -> float * float array

(** {2 Audit} *)

(** [worst_mlu g env ~base_loads ~protection] is
    [max_e (base_loads(e) + worst virtual load on e) / c_e]: the true MLU
    of a routing over [d + env]. Computed per link on the pool, with the
    max taken in slot order, so the value does not depend on the pool
    size. *)
val worst_mlu :
  R3_net.Graph.t ->
  envelope ->
  base_loads:float array ->
  protection:R3_net.Routing.t ->
  float
