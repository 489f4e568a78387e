module G = R3_net.Graph
module Routing = R3_net.Routing
module Rowvec = R3_util.Rowvec

(* The base routing of a state, folded only when read. [Pending (parent,
   e, xi)] is [Routing.fold_failure] of the parent cell's routing by the
   detour [xi] of link [e]; forcing runs exactly that fold and replaces
   the cell by [Forced], dropping the parent. An [Atomic.t] rather than
   [Lazy.t]: sweep workers and the online runtime force shared parents
   from several domains, and a concurrently forced [Lazy.t] raises
   [Lazy.Undefined]. Two domains forcing one cell run the same fold on
   the same frozen parent, so either result has the same bits; the first
   published wins, as with [Routing]'s column index. *)
type cell = Forced of Routing.t | Pending of cell Atomic.t * G.link * Rowvec.t

type base = { cell : cell Atomic.t; loads : float array }

type state = {
  graph : G.t;
  pairs : (G.node * G.node) array;
  demands : float array;
  base : base;
  protection : Routing.t;
  failed : G.link_set;
  pristine_base : base;
  pristine_protection : Routing.t;
}

module Obs = struct
  module M = R3_util.Metrics

  let cow_shared_ratio = M.gauge "r3.reconfig.cow_shared_ratio"
  let base_forces = M.counter "r3.reconfig.base_forces"
  let recoveries = M.counter "r3.reconfig.recoveries"
  let recovery_refolds = M.counter "r3.reconfig.recovery_refolds"
  let fail_refolds = M.counter "r3.reconfig.fail_refolds"
end

let record_sharing (shared, copied) =
  if shared + copied > 0 then
    R3_util.Metrics.set_gauge Obs.cow_shared_ratio
      (float_of_int shared /. float_of_int (shared + copied))

let rec force cell =
  match Atomic.get cell with
  | Forced r -> r
  | Pending (parent, e, xi) as pending ->
    let r, sharing =
      Routing.fold_failure (force parent) ~e ~xi ~replace_with_detour:false
    in
    R3_util.Metrics.incr Obs.base_forces;
    record_sharing sharing;
    if Atomic.compare_and_set cell pending (Forced r) then r else force cell

(* Pre-building the fold indexes here means parallel workers stepping
   the same root state ([Sim.Sweep]) find them ready instead of each
   constructing one on their first step. *)
let make graph ~pairs ~demands ~base ~protection =
  let m = G.num_links graph and nk = Array.length pairs in
  let need ok what = if not ok then invalid_arg ("Reconfig.make: " ^ what) in
  need (Array.length demands = nk) "demands must have one entry per commodity";
  need (Routing.num_commodities base = nk) "base must have one row per commodity";
  need (Routing.num_links base = m) "base must be over the graph's links";
  need (Routing.num_commodities protection = m) "protection must have one commodity per link";
  need (Routing.num_links protection = m) "protection must be over the graph's links";
  let base = Routing.copy base in
  let protection = Routing.copy protection in
  Routing.prepare base;
  Routing.prepare protection;
  let base =
    { cell = Atomic.make (Forced base); loads = Routing.loads graph ~demands base }
  in
  {
    graph;
    pairs;
    demands;
    base;
    protection;
    failed = G.no_failures graph;
    pristine_base = base;
    pristine_protection = protection;
  }

let of_plan (plan : Offline.plan) =
  make plan.Offline.graph ~pairs:plan.Offline.pairs ~demands:plan.Offline.demands
    ~base:plan.Offline.base ~protection:plan.Offline.protection

let detour_vec st e = Routing.rescale_detour st.protection e

let detour st e = Rowvec.to_dense (G.num_links st.graph) (detour_vec st e)

(* The single failure kernel behind every entry point ([fail],
   [apply_failures] and [recover]'s replay), so every caller runs the
   same arithmetic. Copy-on-write throughout: nothing here mutates [st].
   The protection routing and the load vector are folded here; the base
   routing becomes a pending cell, folded by [force] on first read. *)
let fail_one st e =
  if st.failed.(e) then st
  else begin
    let xi = detour_vec st e in
    (* (9) summed over commodities: the traffic on [e] moves onto the
       detour and nothing else moves, L' = L + L(e) * xi_e, L'(e) = 0. *)
    let loads = Array.copy st.base.loads in
    let on_e = loads.(e) in
    if on_e > 0.0 then Rowvec.scatter_add ~scale:on_e xi ~into:loads;
    loads.(e) <- 0.0;
    let base = { cell = Atomic.make (Pending (st.base.cell, e, xi)); loads } in
    (* (10): same for every other link's protection routing. The failed
       link's own row becomes the detour xi_e itself: its virtual demand
       leaves X_F, but the forwarding plane keeps using xi_e to carry the
       link's real traffic (and later failures keep rescaling it). *)
    let protection, sharing =
      Routing.fold_failure st.protection ~e ~xi ~replace_with_detour:true
    in
    record_sharing sharing;
    let failed = Array.copy st.failed in
    failed.(e) <- true;
    { st with base; protection; failed }
  end

(* Canonical application order of a set of directed links: by physical
   representative ascending, representative before reverse — exactly the
   order [Scenario.links] lists, extended to orphan directed links. Every
   path into the folding kernel sorts by this key, so a state's float
   bits are a function of its failed set alone. *)
let canonical_key g e =
  let rep = G.physical_rep g e in
  (rep * 2) + if e = rep then 0 else 1

let pristine st =
  {
    st with
    base = st.pristine_base;
    protection = st.pristine_protection;
    failed = G.no_failures st.graph;
  }

(* The canonical state of the failed set [down]: its links folded from
   the pristine plan routings in canonical order. Returns the state and
   the number of links folded. *)
let refold st down =
  let links = ref [] in
  for e = G.num_links st.graph - 1 downto 0 do
    if down.(e) then links := e :: !links
  done;
  let links =
    List.sort
      (fun a b ->
        Int.compare (canonical_key st.graph a) (canonical_key st.graph b))
      !links
  in
  (List.fold_left fail_one (pristine st) links, List.length links)

(* Links not yet down fold onto [st] directly when they all sort after
   every link already down (Scenario.links is in canonical order) - the
   path of the sweep's prefix tree and the online memo. A link sorting
   below one already down would fold out of canonical order, so then the
   union is refolded from the pristine routings, as [recover] does. *)
let fail st sc =
  match List.filter (fun e -> not st.failed.(e)) (Scenario.links sc) with
  | [] -> st
  | first :: _ as fresh ->
    let g = st.graph in
    let k = canonical_key g first in
    let in_order = ref true in
    Array.iteri
      (fun e down -> if down && canonical_key g e > k then in_order := false)
      st.failed;
    if !in_order then List.fold_left fail_one st fresh
    else begin
      let down = Array.copy st.failed in
      List.iter (fun e -> down.(e) <- true) fresh;
      let st, n = refold st down in
      R3_util.Metrics.add Obs.fail_refolds n;
      st
    end

(* Rescaling is lossy (a fold forgets where the folded traffic came
   from), so un-failing replays the remaining failed links from the
   pristine plan routings — no LP recompute, O(remaining) copy-on-write
   folds, and by construction bit-identical to [fail (pristine st)
   remaining]. *)
let recover st sc =
  let up = Scenario.links sc in
  if not (List.exists (fun e -> st.failed.(e)) up) then st
  else begin
    R3_util.Metrics.incr Obs.recoveries;
    let keep = Array.copy st.failed in
    List.iter (fun e -> keep.(e) <- false) up;
    let st, n = refold st keep in
    R3_util.Metrics.add Obs.recovery_refolds n;
    st
  end

let apply_failures st links = List.fold_left fail_one st links

(* A copy, so a caller writing to it cannot reach this state, its
   ancestors, or a pending child that has yet to fold from it. *)
let base st = Routing.copy (force st.base.cell)

(* Protection first: comparing it never forces a base. *)
let states_bit_identical a b =
  a.failed = b.failed
  && Routing.bits_equal a.protection b.protection
  && Routing.bits_equal (force a.base.cell) (force b.base.cell)

let loads st = Array.copy st.base.loads

let mlu st =
  let loads = st.base.loads in
  let u = ref 0.0 in
  for e = 0 to G.num_links st.graph - 1 do
    if not st.failed.(e) then begin
      let x = loads.(e) /. G.capacity st.graph e in
      if x > !u then u := x
    end
  done;
  !u

let delivered_fraction st =
  let total = Array.fold_left ( +. ) 0.0 st.demands in
  if total <= 0.0 then 1.0
  else begin
    let r = force st.base.cell in
    let got = ref 0.0 in
    Array.iteri
      (fun k d ->
        if d > 0.0 then got := !got +. (d *. Routing.delivered st.graph r k))
      st.demands;
    !got /. total
  end
