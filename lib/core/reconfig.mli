(** R3 online reconfiguration (Section 3.2).

    After link [e] fails, the precomputed protection routing [p] — defined
    on the original topology, so possibly using [e] itself — is converted
    into a valid detour by rescaling (8):

    {v  xi_e(l) = p_e(l) / (1 - p_e(e))      for l <> e  v}

    and both the base routing and the protection routing are updated by
    (9) and (10) to stop using [e]. The procedure is local, cheap, and
    order-independent (Theorem 3), which this module's tests verify.

    The primary API is the {!fail}/{!recover} pair over {!Scenario.t}
    deltas: a state is always the canonical batch application of its
    failed set, folded in canonical scenario order, so two states with
    the same failed set are bit-identical however they were reached.
    {!apply_failures} remains for explicitly-directed failure sequences
    (tests and the detour unit checks).

    {b What a failure costs.} Summed over commodities, (9) moves only the
    traffic on the failed link: the per-link load vector becomes
    [L' = L + L(e) * xi_e] with [L'(e) = 0]. Each state carries that
    vector, folded at {!fail} time, so {!mlu} and {!loads} cost O(m) and
    a failure folds only the protection rows that cross [e] (about 18 of
    160 on pop36) plus one vector. The per-commodity base routing is
    folded only when something reads it ({!val-base},
    {!delivered_fraction}, {!states_bit_identical}); a forced base has the
    bits an eager fold would have had.

    {b Which bits depend on the failed set alone.} On the {!fail} and
    {!recover} paths everything — the base routing, the protection
    routing and the load vector — is folded in canonical order, so its
    bits are a function of the failed set. {!apply_failures} folds in the
    order given; its load vector can then differ from the canonical one
    in the last bits even where its routings do not. The load vector
    agrees with [Routing.loads] of the folded base to rounding (about
    1e-15 relative; exactly at the root), not bit for bit. *)

(** A state's base routing [r], folded on first read, and the per-link
    load of the real traffic on it. Read it with {!val-base} and
    {!loads}. *)
type base

type state = {
  graph : R3_net.Graph.t;
  pairs : (R3_net.Graph.node * R3_net.Graph.node) array;
  demands : float array;
  base : base;  (** current (possibly reconfigured) r *)
  protection : R3_net.Routing.t;  (** current (possibly rescaled) p *)
  failed : R3_net.Graph.link_set;
  pristine_base : base;
      (** the plan's base routing before any failure — what {!recover}
          replays from. *)
  pristine_protection : R3_net.Routing.t;
      (** the plan's protection routing before any failure. Treat as
          read-only. *)
}

(** Initial state from an offline plan (no failures yet). *)
val of_plan : Offline.plan -> state

(** Initial state from explicitly given routings (copied, so later writes
    to them do not reach the state). Raises [Invalid_argument
    "Reconfig.make: ..."] unless [demands] and [base] have one entry
    (row) per commodity of [pairs], [protection] has one commodity per
    link, and both routings are over the graph's links. *)
val make :
  R3_net.Graph.t ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  demands:float array ->
  base:R3_net.Routing.t ->
  protection:R3_net.Routing.t ->
  state

(** The detour [xi_e] for a link, per (8), on the {e current} state. When
    [p_e(e) = 1] the detour is all-zero: the link carries nothing that needs
    protection (or the network is partitioned) and its traffic is dropped. *)
val detour : state -> R3_net.Graph.link -> float array

(** {2 The scenario-delta API}

    [fail] and [recover] advance a state between failed sets. Both are
    copy-on-write: routing rows a transition does not touch are shared
    with the parent state, the parent is never mutated, and any number
    of children may be derived from one state (including concurrently —
    see {!R3_net.Routing.fold_failure}). A child's base routing stays
    pending until read; reading it folds its chain of pending ancestors
    once, and domains may read one state concurrently. Both fold rescaling steps in
    {e canonical scenario order} (physical representatives ascending,
    each followed by its reverse), so a state's float bits depend only
    on its failed set — Theorem 3 (order independence) made executable,
    and the property the online runtime's randomized delivery-order
    tests pin down. *)

(** [fail st sc] fails every link of [sc] not already down: for each
    directed link, rescale the detour (8) and fold it through (9)/(10).
    O(rows touched) when the new links all sort after every link already
    down - the order a prefix-tree walk or a memoized prefix recursion
    produces. Otherwise folding onto [st] would break canonical order,
    so the union is refolded from the pristine routings instead
    (O(failed links) folds, counted on [r3.reconfig.fail_refolds]).
    Idempotent on already-failed links. *)
val fail : state -> Scenario.t -> state

(** [recover st sc] brings the links of [sc] back up. Rescaling is lossy
    (folding a detour forgets where the folded traffic came from), so
    recovery replays the {e remaining} failed links from the pristine
    plan routings — no LP recompute, just O(remaining links) folds on the
    copy-on-write substrate. Bit-identical to [fail pristine remaining].
    Links of [sc] that were not failed are ignored; recovering everything
    returns a state bit-identical to the pristine one. *)
val recover : state -> Scenario.t -> state

(** Apply a failure sequence left to right (directed links). *)
val apply_failures : state -> R3_net.Graph.link list -> state

(** [base st] is the state's base routing, folded now if it was pending
    (counted on [r3.reconfig.base_forces], one per fold performed). It
    is a {!R3_net.Routing.copy} (O(rows) pointers; the row payloads are
    shared and frozen), so writes to it never reach this or any other
    state. *)
val base : state -> R3_net.Routing.t

(** True iff the two states have the same failure set and bit-identical
    base and protection routings (compared via [Int64.bits_of_float] on
    the dense image, so a stored [-0.0] differs from an absent entry).
    Forces both bases; does not compare load vectors. Built on
    {!R3_net.Routing.bits_equal}: rows the two states share
    copy-on-write are skipped, every other row is read in full, and
    nothing is allocated once the bases are forced — comparing two
    states folded from one root costs the rows their failures touched.
    The equivalence check behind [Online.run]'s terminal check and the
    tests for [fail]-vs-replay folds. *)
val states_bit_identical : state -> state -> bool

(** Per-link load of the real traffic under the current base routing: a
    fresh copy of the state's folded load vector (O(m); the base is not
    forced). *)
val loads : state -> float array

(** Maximum link utilization of the current state (failed links excluded —
    they carry nothing). Reads the load vector: O(m), the base is not
    forced. *)
val mlu : state -> float

(** Fraction of total demand still delivered (1.0 absent partitions).
    Forces the base. *)
val delivered_fraction : state -> float
