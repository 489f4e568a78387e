(** IGP (OSPF/IS-IS) link-weight optimization by local search, in the
    spirit of Fortz–Thorup [13], which the paper uses to build its
    optimized-OSPF baselines.

    The search minimizes a piecewise-linear congestion cost of the ECMP
    routing induced by the weights, summed over one or several traffic
    matrices, by single-weight perturbations with a deterministic PRNG.
    A move is kept only if it lowers the cost, so the cost never rises
    from the start. *)

type config = {
  iterations : int;  (** candidate moves to try (default 600) *)
  max_weight : int;  (** weight range is [1, max_weight] (default 20) *)
  seed : int;
}

val default_config : config

(** [optimize ?config g tms] returns optimized weights. Starts from
    inverse-capacity weights quantized into [\[1, max_weight\]]; with
    [iterations = 0] it returns that start. *)
val optimize : ?config:config -> R3_net.Graph.t -> R3_net.Traffic.t list -> float array

(** The Fortz–Thorup piecewise-linear link cost of a load/capacity point,
    exposed for tests: convex, slope 1 below 1/3 utilization rising to 5000
    above 110%. *)
val link_cost : load:float -> capacity:float -> float

(** Total cost of a routing for a TM under the given weights. *)
val routing_cost : R3_net.Graph.t -> weights:float array -> R3_net.Traffic.t -> float
