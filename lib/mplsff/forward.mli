(** Packet-level MPLS-ff forwarding with label stacking (Section 4.3).

    A packet follows the base routing of its OD pair hop by hop; at each
    router the next hop is chosen by the router-salted flow hash over the
    base splitting ratios. When the chosen next-hop link has failed, the
    head router pushes the link's protection label and the packet follows
    the label's NHLFE ratios until the protected link's tail pops the
    label (Figure 2's example). A second failure met while protected
    pushes a second label — the transient stacking the paper describes;
    after routers rescale [p] the ratios avoid failed links and stacks
    stay shallow. *)

type network = {
  graph : R3_net.Graph.t;
  base : R3_net.Routing.t;  (** base routing, one commodity per OD pair *)
  pair_index : (R3_net.Graph.node * R3_net.Graph.node, int) Hashtbl.t;
  fib : Fib.t;
  failed : R3_net.Graph.link_set;
}

(** Routers salt the flow hash with {!Flow_hash.router_salt} at seed 42. *)
val make :
  R3_net.Graph.t ->
  base:R3_net.Routing.t ->
  fib:Fib.t ->
  ?failed:R3_net.Graph.link_set ->
  unit ->
  network

(** Outcome of forwarding one packet. *)
type trace = {
  links : R3_net.Graph.link list;  (** traversed links, in order *)
  delivered : bool;
  max_stack_depth : int;
  rtt_ms : float;  (** round-trip propagation delay of the path taken *)
}

(** [forward net ~flow ~src ~dst] walks one packet. [Error] cases: no
    route, hop budget exceeded, stack overflow. *)
val forward :
  network ->
  flow:Flow_hash.flow ->
  src:R3_net.Graph.node ->
  dst:R3_net.Graph.node ->
  (trace, string) result

(** Empirical split check helper: forward [count] random flows of one OD
    pair and return per-link traversal frequencies (fraction of flows). *)
val split_frequencies :
  network ->
  rng:R3_util.Prng.t ->
  count:int ->
  src:R3_net.Graph.node ->
  dst:R3_net.Graph.node ->
  float array
