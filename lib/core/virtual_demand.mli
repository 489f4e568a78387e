(** The rerouting virtual demand set [X_F] of equation (2):

    {v X_F = { x | 0 <= x_e/c_e <= 1 for all e,  sum_e x_e/c_e <= F } v}

    plus the closed form of the inner maximization (5): because (5) is a
    fractional knapsack with unit weights, the worst-case virtual load on a
    link [e] under protection routing [p] is exactly the sum of the [F]
    largest values of [c_l * p_l(e)]. This closed form powers both the
    congestion-free verifier and the constraint-generation solver. *)

(** [member g ~f x] checks x in X_F (x indexed by link). *)
val member : R3_net.Graph.t -> f:int -> float array -> bool

(** Extreme points of [X_F] on small graphs: every subset of at most [f]
    links at full capacity. Exponential — intended for tests; raises
    [Invalid_argument] when there would be more than [limit] (default
    200_000) points. *)
val extreme_points : ?limit:int -> R3_net.Graph.t -> f:int -> float array list

(** [weight_columns g p] is the knapsack weights of every link at once:
    [(weight_columns g p).(e).(l) = c_l * p_l(e)], with [+0.0] where row
    [l] of the protection routing [p] stores nothing at [e]. Built in one
    pass over the rows of [p] (a per-entry [Routing.get] loop would
    search every row for every link). The oracles below, and the
    structured one, only read their weights, so one matrix serves every
    separation task of a round. *)
val weight_columns : R3_net.Graph.t -> R3_net.Routing.t -> float array array

(** [worst_virtual_load g ~f ~weights] where [weights.(l) = c_l * p_l(e)]
    for a fixed link [e]: the optimal objective of (5), i.e. the sum of the
    [f] largest weights. *)
val worst_virtual_load : f:int -> float array -> float

(** As above but also returning the argmax set of links (the adversarial
    failure scenario for this link), largest first. *)
val worst_virtual_load_set : f:int -> float array -> float * int list
