module G = R3_net.Graph
module Routing = R3_net.Routing
module Rowvec = R3_util.Rowvec

type state = {
  graph : G.t;
  pairs : (G.node * G.node) array;
  demands : float array;
  base : Routing.t;
  protection : Routing.t;
  failed : G.link_set;
  pristine_base : Routing.t;
  pristine_protection : Routing.t;
}

module Obs = struct
  module M = R3_util.Metrics

  let cow_shared_ratio = M.gauge "r3.reconfig.cow_shared_ratio"
  let recoveries = M.counter "r3.reconfig.recoveries"
  let recovery_refolds = M.counter "r3.reconfig.recovery_refolds"
  let fail_refolds = M.counter "r3.reconfig.fail_refolds"
end

(* Pre-building the fold indexes here means parallel workers stepping
   the same root state ([Sim.Sweep]) find them ready instead of each
   constructing one on their first step. *)
let of_plan (plan : Offline.plan) =
  let base = Routing.copy plan.Offline.base in
  let protection = Routing.copy plan.Offline.protection in
  Routing.prepare base;
  Routing.prepare protection;
  {
    graph = plan.Offline.graph;
    pairs = plan.Offline.pairs;
    demands = plan.Offline.demands;
    base;
    protection;
    failed = G.no_failures plan.Offline.graph;
    pristine_base = base;
    pristine_protection = protection;
  }

let make graph ~pairs ~demands ~base ~protection =
  if Routing.num_commodities protection <> G.num_links graph then
    invalid_arg "Reconfig.make: protection must have one commodity per link";
  let base = Routing.copy base in
  let protection = Routing.copy protection in
  Routing.prepare base;
  Routing.prepare protection;
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

let one_tol = Config.default.Config.rescale_tol

let detour_vec st e = Routing.rescale_detour ~tol:one_tol st.protection e

let detour st e = Rowvec.to_dense (G.num_links st.graph) (detour_vec st e)

(* The single failure kernel behind every entry point ([fail], the
   deprecated per-link wrappers, and [recover]'s replay): every caller
   provably runs the same arithmetic, so stepped, folded, and
   direction-paired states cannot drift apart. Copy-on-write throughout —
   rows the failure does not touch are shared with the parent, so a
   scenario-tree traversal pays O(changed rows) per edge and nothing here
   mutates [st]. *)
let fail_one st e =
  if st.failed.(e) then st
  else begin
    let xi = detour_vec st e in
    (* (9): fold the base traffic of the failed link onto the detour. *)
    let base, (bs, bc) =
      Routing.fold_failure st.base ~e ~xi ~replace_with_detour:false
    in
    (* (10): same for every other link's protection routing. The failed
       link's own row becomes the detour xi_e itself: its virtual demand
       leaves X_F, but the forwarding plane keeps using xi_e to carry the
       link's real traffic (and later failures keep rescaling it). *)
    let protection, (ps, pc) =
      Routing.fold_failure st.protection ~e ~xi ~replace_with_detour:true
    in
    let shared = bs + ps and copied = bc + pc in
    if shared + copied > 0 then
      R3_util.Metrics.set_gauge Obs.cow_shared_ratio
        (float_of_int shared /. float_of_int (shared + copied));
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
  let rep = match G.reverse_link g e with Some r when r < e -> r | _ -> e in
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

let states_bit_identical a b =
  a.failed = b.failed
  && Routing.bits_equal a.base b.base
  && Routing.bits_equal a.protection b.protection

let loads st = Routing.loads st.graph ~demands:st.demands st.base

let mlu st =
  let loads = loads st in
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
    let got = ref 0.0 in
    Array.iteri
      (fun k d ->
        if d > 0.0 then
          got := !got +. (d *. Routing.delivered st.graph st.base k))
      st.demands;
    !got /. total
  end
