(** Traffic matrices and synthetic demand generation.

    The paper evaluates on real US-ISP hourly matrices (proprietary) and on
    gravity-model synthetic matrices for the Rocketfuel topologies [30, 45].
    We implement the gravity model plus a diurnal/weekly modulation used to
    stand in for the US-ISP week-long trace (see DESIGN.md §4). *)

type t = float array array
(** [t.(a).(b)] is the demand from node [a] to node [b]; diagonal is 0. *)

val zeros : int -> t

val copy : t -> t

(** Sum of all entries. *)
val total : t -> float

(** Multiply every entry by a scalar. *)
val scale : t -> float -> t

(** Entrywise sum. Raises [Invalid_argument] on dimension mismatch. *)
val add : t -> t -> t

(** Gravity model: node mass = total adjacent capacity, demand(a,b)
    proportional to mass(a)*mass(b), scaled so the busiest link would see
    roughly [load_factor] utilization under even spreading. Deterministic
    given the generator; a lognormal jitter (spread 0.4) keeps the
    matrix non-uniform. *)
val gravity : R3_util.Prng.t -> Graph.t -> load_factor:float -> unit -> t

(** [diurnal_factor ~interval] is a smooth 24h-periodic factor in [0.35, 1.0]
    with a weekly dip, where [interval] counts hours from Monday 00:00. *)
val diurnal_factor : interval:int -> float

(** The commodity view used by the routing and LP layers: pairs with nonzero
    demand and the parallel demand array. *)
val commodities : t -> (Graph.node * Graph.node) array * float array

(** [split3 rng tm ~p1 ~p2] partitions a matrix into three classes (e.g.
    TPRT / TPP / IP) with expected fractions [p1], [p2], [1-p1-p2] per OD
    pair (independent random proportions). The three parts sum back to
    [tm]. *)
val split3 : R3_util.Prng.t -> t -> p1:float -> p2:float -> t * t * t
