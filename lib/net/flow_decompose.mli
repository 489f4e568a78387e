(** Flow decomposition (Section 4.1 of the paper).

    A flow-representation routing can be implemented over standard MPLS by
    decomposing each commodity's link fractions into at most [|E|] weighted
    paths and signalling one LSP per path. The paper rejects this for the
    protection routing because every post-failure rescaling decomposes to a
    {e new} path set that must be re-signalled — the churn MPLS-ff avoids —
    and this module lets us quantify that argument (see the test suite and
    the ablation bench).

    Decomposition is the classic peeling procedure: repeatedly trace a
    source-to-destination path through positive-fraction links, peel off its
    bottleneck fraction, and continue; circulation (flow on cycles, e.g.
    loop slack left by an LP) is removed first and reported separately. *)

type path = { weight : float; links : Graph.link list }

(** [decompose g t k] splits commodity [k] of routing [t] into weighted
    simple paths. The weights sum to the commodity's delivered fraction
    (1 for a valid total routing); the second component is the total
    circulation flow removed. At most [|E|] paths are produced. *)
val decompose : Graph.t -> Routing.t -> int -> path list * float

(** Rebuild link fractions from paths (inverse of {!decompose} up to the
    removed circulation). *)
val recompose : Graph.t -> path list -> float array

(** Number of LSPs needed to implement every commodity of [t]. *)
val total_paths : Graph.t -> Routing.t -> int

(** [path_churn g ~before ~after] — how many of [after]'s paths (per
    commodity) are not present in [before]: the LSPs that would need fresh
    signalling after a reconfiguration. Returns (new_paths, total_after). *)
val path_churn : Graph.t -> before:Routing.t -> after:Routing.t -> int * int
