(** MPLS-ff forwarding information base (Section 4.2).

    Standard MPLS maps an incoming label through the ILM to a single
    forwarding instruction. MPLS-ff extends the FWD instruction to hold
    {e multiple} NHLFEs, each with a next-hop splitting ratio; a router
    hashes each flow onto one NHLFE. One protection label is allocated per
    protected link, network-wide; the label's NHLFE ratios at router [v]
    encode [p_l(v, j)]. *)

type nhlfe = {
  out_link : R3_net.Graph.link;
  ratio : float;  (** next-hop splitting ratio, normalized per router *)
}

type fwd = { label : int; nhlfes : nhlfe array }

type router_fib = {
  router : R3_net.Graph.node;
  ilm : (int, fwd) Hashtbl.t;  (** incoming label map *)
}

type t = {
  graph : R3_net.Graph.t;
  fibs : router_fib array;  (** indexed by router id *)
  protected_links : R3_net.Graph.link array;
  sources : R3_net.Routing.t array;
      (** indexed by router id: a {!R3_net.Routing.copy} of the
          protection routing that router's table was derived from, what
          {!update_router} compares a new routing with; routers derived
          from one routing may share one copy. Not part of {!equal}. *)
  origins : R3_net.Routing.t array;
      (** indexed by router id: the routing [sources] was copied from.
          Not part of {!equal}. *)
}

(** Protection label of a link (stable, network-wide). *)
val label_of_link : R3_net.Graph.link -> int

val link_of_label : int -> R3_net.Graph.link

(** Build all routers' ILM/NHLFE state from a protection routing: at every
    router on [p_l]'s support (plus the head of [l]), install the label of
    [l] with per-next-hop ratios proportional to [p_l(v, j)], excluding the
    protected link itself at its head (the paper's
    [p_l(i,j) / sum_{j'} p_l(i,j')] with [(i,j') <> l]). Links whose
    protection routes entirely over themselves (stubs) get no entries. *)
val of_protection : R3_net.Graph.t -> R3_net.Routing.t -> t

(** Re-derive ratios after failures from a reconfigured protection routing
    (what routers do locally after each notification). *)
val update : t -> R3_net.Routing.t -> t

(** [update_router t ~router p] brings {e one} router's ILM up to that
    router's (possibly stale) view [p] of the protection routing — the
    local FIB step the online runtime applies when a notification reaches
    [router]. Label [l]'s entry depends on row [l] of [p] alone, and a
    row payload [p] shares with the routing the table was derived from
    holds the same bits ({!R3_net.Routing.shares_row}), so only the labels
    of the other rows are re-derived, by the same per-label function the
    full build uses; [t] itself comes back when every row is shared, and
    the router's table when no re-derived entry differs. The
    result equals (by {!equal}) the router's table in
    [of_protection g p]. The new source is a {!R3_net.Routing.copy} of
    [p] — another router's, when that router's copy still shares every
    row with [p] — which seals [p]: a later
    {!R3_net.Routing.set} on [p] copies the row instead of writing the
    payload the table was compared with. Other routers' tables are shared
    with [t] untouched, so applying per-router updates in {e any} order,
    once every router has seen the final protection routing, lands on
    the same FIB as a full {!update} (tested in [test/test_online.ml]).
    Cost: O(links) pointer comparisons plus the changed labels' work. *)
val update_router : t -> router:R3_net.Graph.node -> R3_net.Routing.t -> t

(** Structural equality of the forwarding state: same routers, same ILM
    entries, bit-identical splitting ratios. *)
val equal : t -> t -> bool

(** Total entries across routers: [(ilm_entries, nhlfe_entries)] of the
    router with the largest tables — the per-router figure of Table 3. *)
val max_table_sizes : t -> int * int
