(** OSPF with CSPF fast-reroute (the paper's OSPF+CSPF-detour).

    The base routing stays in place; the traffic that crossed each failed
    link is tunneled along the constrained shortest path from the link's
    head to its tail computed on the surviving topology — the standard
    MPLS FRR bypass. Traffic of failed links whose endpoints are
    disconnected is lost. *)

val evaluate :
  R3_net.Graph.t ->
  failed:R3_net.Graph.link_set ->
  weights:float array ->
  base:R3_net.Routing.t ->
  demands:float array ->
  unit ->
  Types.outcome

(** The static form of the same bypass, as an R3 protection routing
    over {!R3_mcf.Flow_lp.link_pairs}: row [l] is the unit-weight
    shortest path from [l]'s source to its destination with [l] alone
    down, or [l] itself (its traffic dropped) where [l] is a bridge.
    Valid for (8)-(10) and cheap (no LP): the protection of tests,
    benches and Table 3's rows beyond the LP's reach. *)
val protection : R3_net.Graph.t -> R3_net.Routing.t
