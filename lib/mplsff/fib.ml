module G = R3_net.Graph
module Routing = R3_net.Routing

type nhlfe = { out_link : G.link; ratio : float }

type fwd = { label : int; nhlfes : nhlfe array }

type router_fib = { router : G.node; ilm : (int, fwd) Hashtbl.t }

type t = {
  graph : G.t;
  fibs : router_fib array;
  protected_links : G.link array;
  sources : Routing.t array;
  origins : Routing.t array;
}

let label_base = 100

let label_of_link e = label_base + e

let link_of_label l = l - label_base

(* Label [l]'s entry at [router], from row [l] of (that router's view of)
   the protection routing; [None] when the router forwards none of it.
   The one derivation behind the full build and the incremental update,
   so the two can never drift. Ratios are over the router's outgoing
   links; at the protected link's head the link itself is excluded (it
   is the one being bypassed). One pass over the row collects the
   candidates: the row visits links in ascending id, which is
   [G.out_links]'s order, so [total] adds the same terms in the same
   order as a per-out-link lookup would. *)
let label_fwd g p router l =
  let total = ref 0.0 and picked = ref [] in
  Routing.iter_row p l (fun e x ->
      if e <> l && G.src g e = router && x > 1e-12 then begin
        total := !total +. x;
        picked := (e, x) :: !picked
      end);
  let total = !total in
  if total > 1e-12 then
    let nhlfes =
      List.rev_map (fun (e, x) -> { out_link = e; ratio = x /. total }) !picked
      |> Array.of_list
    in
    Some { label = label_of_link l; nhlfes }
  else None

let of_protection g p =
  if Routing.num_commodities p <> G.num_links g then
    invalid_arg "Fib.of_protection: protection must cover every link";
  let n = G.num_nodes g in
  let fibs = Array.init n (fun router -> { router; ilm = Hashtbl.create 16 }) in
  (* Only a router some entry of row [l] leaves from can forward label
     [l]: derive the label at each such router once, in ascending label
     order per router as a per-router loop over every label would. *)
  let last_label = Array.make n (-1) in
  for l = 0 to G.num_links g - 1 do
    Routing.iter_row p l (fun e _ ->
        let router = G.src g e in
        if last_label.(router) <> l then begin
          last_label.(router) <- l;
          match label_fwd g p router l with
          | Some fwd -> Hashtbl.replace fibs.(router).ilm fwd.label fwd
          | None -> ()
        end)
  done;
  {
    graph = g;
    fibs;
    protected_links = Array.init (G.num_links g) (fun e -> e);
    sources = Array.make n (Routing.copy p);
    origins = Array.make n p;
  }

let update t p = of_protection t.graph p

let fwd_equal a b =
  a.label = b.label
  && Array.length a.nhlfes = Array.length b.nhlfes
  && Array.for_all2
       (fun x y ->
         x.out_link = y.out_link
         && Int64.equal (Int64.bits_of_float x.ratio) (Int64.bits_of_float y.ratio))
       a.nhlfes b.nhlfes

(* A sealed copy of [p] for a router's source: the one another router
   took of [p] while every row of [p] is still the payload it copied
   (a row written in place since is un-shared first, so it fails the
   test), else a fresh [Routing.copy]. Routers that catch up to the same
   routing then hold one copy between them, not one each. *)
let source_of t p =
  let m = G.num_links t.graph in
  let rec same s l = l = m || (Routing.shares_row s p l && same s (l + 1)) in
  let n = Array.length t.sources in
  let rec find r =
    if r = n then Routing.copy p
    else if t.origins.(r) == p && same t.sources.(r) 0 then t.sources.(r)
    else find (r + 1)
  in
  find 0

(* Only the labels whose protection row is not the payload the router's
   table was built from can have changed: a shared payload holds the
   same bits (the rule of Routing's bit-level comparison), and the
   source is a copy, which seals [p] against later in-place writes. The
   router's table is copied only when one of those labels' entries
   differs: most rows a failure refolds do not reach a given router. *)
let update_router t ~router p =
  if Routing.num_commodities p <> G.num_links t.graph then
    invalid_arg "Fib.update_router: protection must cover every link";
  let src = t.sources.(router) in
  let changed = ref [] in
  for l = G.num_links t.graph - 1 downto 0 do
    if not (Routing.shares_row src p l) then changed := l :: !changed
  done;
  match !changed with
  | [] -> t
  | changed ->
    let old = t.fibs.(router).ilm in
    let edits =
      List.filter_map
        (fun l ->
          let label = label_of_link l in
          match (label_fwd t.graph p router l, Hashtbl.find_opt old label) with
          | None, None -> None
          | Some fwd, Some cur when fwd_equal fwd cur -> None
          | fwd, _ -> Some (label, fwd))
        changed
    in
    let fibs = Array.copy t.fibs
    and sources = Array.copy t.sources
    and origins = Array.copy t.origins in
    if edits <> [] then begin
      let ilm = Hashtbl.copy old in
      List.iter
        (function
          | label, Some fwd -> Hashtbl.replace ilm label fwd
          | label, None -> Hashtbl.remove ilm label)
        edits;
      fibs.(router) <- { router; ilm }
    end;
    sources.(router) <- source_of t p;
    origins.(router) <- p;
    { t with fibs; sources; origins }

let router_fib_equal a b =
  a.router = b.router
  && Hashtbl.length a.ilm = Hashtbl.length b.ilm
  && Hashtbl.fold
       (fun label fwd acc ->
         acc
         &&
         match Hashtbl.find_opt b.ilm label with
         | Some fwd' -> fwd_equal fwd fwd'
         | None -> false)
       a.ilm true

let equal a b =
  Array.length a.fibs = Array.length b.fibs
  && Array.for_all2 router_fib_equal a.fibs b.fibs

let max_table_sizes t =
  Array.fold_left
    (fun (best_ilm, best_nh) fib ->
      let ilm = Hashtbl.length fib.ilm in
      let nh =
        Hashtbl.fold (fun _ fwd acc -> acc + Array.length fwd.nhlfes) fib.ilm 0
      in
      (Int.max best_ilm ilm, Int.max best_nh nh))
    (0, 0) t.fibs
