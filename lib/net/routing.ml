module Rowvec = R3_util.Rowvec

(* New-row materializations; row *sharing* (copy, untouched fold_failure
   rows) deliberately does not count. *)
module Obs = struct
  module M = R3_util.Metrics

  let rows = M.counter "r3.routing.rows"
end

(* Row payloads are shared between routings (copy-on-write). Sharing is
   tracked by generations: row [k] is exclusively owned iff
   [own_gen.(k) >= Atomic.get share_gen]. Handing payloads out
   ([fold_failure], [copy]) "seals" the giver with one [Atomic.incr] of
   [share_gen] — every row whose [own_gen] predates the bump reads as
   shared, and a later in-place mutation copies it first ([own]),
   recording the current generation. The seal is the ONLY write
   [fold_failure] performs on its input, and it is atomic, so any number
   of domains may fold the same parent concurrently (the contract
   [Sim.Sweep] relies on when workers step a shared root state); the
   sticky seal merely costs a spurious copy if the giver is mutated
   later.

   [cols] is the column support index: for link [e] it enumerates the
   rows whose support MAY include [e] (a superset is fine — every
   candidate's coefficient is re-read, and stale entries simply re-read
   a zero). It turns the failure fold from a scan of all rows into a
   visit of just the rows the failed link touches. It is built from the
   rows (lazily, or eagerly via [prepare]) and published through an
   [Atomic.t] only once fully constructed, so concurrent folders either
   see [None] (and build an identical index from the same frozen rows)
   or a complete index — never a partially built one. Folded children
   inherit the parent's base array untouched and push one overlay
   [(xi, touched)] meaning "these rows may now have support anywhere in
   xi's support" — no per-fold array copy, no per-entry conses. Overlay
   chains are capped at [max_overlays]: past that a child drops the
   inherited index and rebuilds from its own rows on its next fold, so
   long failure sequences keep O(1) overlays per candidate lookup and do
   not retain every ancestor's detour vector. Any direct row mutation
   invalidates the whole index. *)
type colidx = {
  cbase : int list array;
  overlays : (Rowvec.t * int list) list;
}

let max_overlays = 8

(* Rows live in chunks of 128 row pointers, not one flat array: a folded
   child needs its own row table, and a flat [nk]-entry pointer array is
   a major-heap allocation (beyond the minor limit) whose copy pays a
   write-barrier per element and whose garbage drives major GC slices —
   a per-fold tax. Chunks stay in the minor heap: copying is plain
   memcpy and dead children vanish in the next minor collection. Chunks
   are always exclusively owned by their routing (only rows are
   copy-on-write shared). *)
let chunk_bits = 7

let chunk_size = 1 lsl chunk_bits

type t = {
  prs : (Graph.node * Graph.node) array;
  m : int;
  rows : Rowvec.t array array;
  own_gen : int array;  (* row [k] owned iff own_gen.(k) >= share_gen *)
  share_gen : int Atomic.t;
  cols : colidx option Atomic.t;
}

let rget rows k =
  Array.unsafe_get
    (Array.unsafe_get rows (k lsr chunk_bits))
    (k land (chunk_size - 1))

let rset rows k p =
  Array.unsafe_set
    (Array.unsafe_get rows (k lsr chunk_bits))
    (k land (chunk_size - 1))
    p

let rows_init nk f =
  Array.init
    ((nk + chunk_size - 1) / chunk_size)
    (fun c ->
      let lo = c * chunk_size in
      Array.init (Int.min chunk_size (nk - lo)) (fun i -> f (lo + i)))

let rows_copy rows = Array.map Array.copy rows

let create g ~pairs =
  let nk = Array.length pairs in
  R3_util.Metrics.add Obs.rows nk;
  {
    prs = pairs;
    m = Graph.num_links g;
    rows = rows_init nk (fun _ -> Rowvec.create ~cap:4 ());
    own_gen = Array.make nk 0;
    share_gen = Atomic.make 0;
    cols = Atomic.make None;
  }

let num_commodities t = Array.length t.prs

let num_links t = t.m

let pairs t = t.prs

let pair t k = t.prs.(k)

let copy t =
  let nk = num_commodities t in
  Atomic.incr t.share_gen;
  {
    t with
    prs = Array.copy t.prs;
    rows = rows_copy t.rows;
    own_gen = Array.make nk 0;
    share_gen = Atomic.make 1;
    (* Same rows, same supports: the built index stays valid. *)
    cols = Atomic.make (Atomic.get t.cols);
  }

let get t k e = Rowvec.get (rget t.rows k) e

(* Un-share a row before mutating it in place. Mutators require exclusive
   access to [t], so the plain [own_gen] read/write cannot race. *)
let own t k =
  let gen = Atomic.get t.share_gen in
  if t.own_gen.(k) < gen then begin
    rset t.rows k (Rowvec.copy (rget t.rows k));
    R3_util.Metrics.incr Obs.rows;
    t.own_gen.(k) <- gen
  end

let set t k e x =
  own t k;
  (* Exact zeros of either sign are structural: a written [-0.0] is
     dropped like [+0.0], so no stored entry is ever a zero. *)
  Rowvec.set (rget t.rows k) e x;
  Atomic.set t.cols None

let iter_row t k f = Rowvec.iter f (rget t.rows k)

let fold_row t k ~init ~f =
  let acc = ref init in
  iter_row t k (fun e x -> acc := f !acc e x);
  !acc

let row_dense t k = Rowvec.to_dense t.m (rget t.rows k)

let row_vec t k = Rowvec.copy (rget t.rows k)

(* Install [row] as row [k], owned by [t]. *)
let install_row t k row =
  R3_util.Metrics.incr Obs.rows;
  rset t.rows k row;
  t.own_gen.(k) <- Atomic.get t.share_gen;
  Atomic.set t.cols None

let set_row_dense t k row =
  if Array.length row <> t.m then invalid_arg "Routing.set_row_dense: bad length";
  install_row t k (Rowvec.of_dense row)

let set_row_vec t k row =
  Rowvec.iter
    (fun e _ ->
      if e < 0 || e >= t.m then
        invalid_arg "Routing.set_row_vec: index out of range")
    row;
  install_row t k row

let to_dense_matrix t = Array.init (num_commodities t) (row_dense t)

(* ---- bit-level comparison ----

   A row handed to a second routing ([copy], [fold_failure]) is frozen:
   every holder sees it as shared, and [own] copies a shared row before
   any write. So one row object holds the same bits for every routing
   that holds it, for as long as either does. Nothing here allocates. *)

let bits_equal a b =
  let nk = num_commodities a in
  nk = num_commodities b
  && (nk = 0 || a.m = b.m)
  &&
  let k = ref 0 in
  while
    !k < nk
    &&
    let ra = rget a.rows !k and rb = rget b.rows !k in
    ra == rb || Rowvec.bits_equal ra rb
  do
    incr k
  done;
  !k = nk

let shares_row a b k =
  if k < 0 || k >= num_commodities a || k >= num_commodities b then
    invalid_arg "Routing.shares_row: bad row";
  rget a.rows k == rget b.rows k

let nnz t =
  let acc = ref 0 in
  for k = 0 to num_commodities t - 1 do
    acc := !acc + Rowvec.nnz (rget t.rows k)
  done;
  !acc

(* ---- column support index ---- *)

let ensure_cols t =
  match Atomic.get t.cols with
  | Some c -> c
  | None ->
    let c = Array.make t.m [] in
    for k = num_commodities t - 1 downto 0 do
      Rowvec.iter (fun e _ -> c.(e) <- k :: c.(e)) (rget t.rows k)
    done;
    let ci = { cbase = c; overlays = [] } in
    (* Published only once fully built: a reader that observes [Some ci]
       observes its contents. Concurrent builders construct identical
       indexes from the same frozen rows; last publication wins. *)
    Atomic.set t.cols (Some ci);
    ci

let prepare t = ignore (ensure_cols t : colidx)

(* Visit every row that may have support at [e]: the base column plus any
   overlay whose detour support contains [e]. Duplicates are possible and
   harmless (the caller re-reads the live coefficient each time). *)
let iter_candidates ci e f =
  List.iter f ci.cbase.(e);
  List.iter
    (fun (vec, rows) -> if Rowvec.get vec e <> 0.0 then List.iter f rows)
    ci.overlays

(* ---- failure folding (equations (8)-(10)) ---- *)

let rescale_tol = 1e-9

let rescale_detour t e =
  let row = rget t.rows e in
  let self = Rowvec.get row e in
  if self >= 1.0 -. rescale_tol then Rowvec.create ~cap:1 ()
  else begin
    let r = Rowvec.copy row in
    Rowvec.clear r e;
    Rowvec.scale r (1.0 /. (1.0 -. self));
    r
  end

let fold_failure t ~e ~xi ~replace_with_detour =
  let nk = num_commodities t in
  (* Seal the parent: one atomic generation bump marks every parent row
     "possibly shared". This is the only write to [t] on the fold path,
     so concurrent folds from the same parent are race-free. The child
     starts as a full row share ([own_gen] all behind its generation);
     only candidate rows (support possibly containing [e]) are re-read,
     everything else is untouched by construction. *)
  Atomic.incr t.share_gen;
  let rows = rows_copy t.rows in
  let own_gen = Array.make nk 0 in
  let touched = ref [] and copied = ref 0 in
  let install k row =
    rset rows k row;
    own_gen.(k) <- 1;
    incr copied;
    touched := k :: !touched
  in
  let visit k =
    if not (replace_with_detour && k = e) then begin
      (* Read through [rows]: superset indices can list a row twice, and
         after the first fold its [e] entry is gone. *)
      let r = rget rows k in
      let on_e = Rowvec.get r e in
      (* (9)/(10) on one row: [row + on_e * xi] with entry [e] dropped,
         in one ascending merge (see [Rowvec.merged]). A stored [-0.0]
         or negative solver noise only loses entry [e]; an absent entry
         or a stored [+0.0] leaves the row shared. *)
      if on_e > 0.0 then install k (Rowvec.merged ~skip:e ~y:r ~x:xi on_e)
      else if on_e <> 0.0 || Float.sign_bit on_e then begin
        let r' = Rowvec.copy r in
        Rowvec.clear r' e;
        install k r'
      end
    end
  in
  (* Candidate rows come from column [e] of the support index: every row
     with an entry at [e] is visited, and only those. *)
  let ci = ensure_cols t in
  iter_candidates ci e visit;
  if replace_with_detour then install e (Rowvec.copy xi);
  (* Inherit the support index: touched rows' supports grew by at most
     xi's support, recorded as one overlay. Stale entries (column [e],
     rows that shrank) are harmless supersets. A chain of folds would
     accumulate one overlay per ancestor, degrading candidate lookup
     back toward a full scan and retaining every ancestor's xi — so past
     [max_overlays] the child drops the index and lazily rebuilds it
     from its own rows on its next fold (O(nnz), amortized over the
     chain). *)
  let cols' =
    match !touched with
    | [] -> Some ci
    | tch ->
      if List.length ci.overlays >= max_overlays then None
      else Some { ci with overlays = (Rowvec.copy xi, tch) :: ci.overlays }
  in
  (* Counted once per fold: a per-row atomic increment costs as much as
     the row copy it is counting. *)
  if !copied > 0 then R3_util.Metrics.add Obs.rows !copied;
  ( { t with rows; own_gen; share_gen = Atomic.make 1; cols = Atomic.make cols' },
    (nk - !copied, !copied) )

(* ---- aggregate consumers ---- *)

let validate g ?(tol = 1e-6) ?failed ?(partial = false) t =
  let failed = match failed with Some f -> f | None -> Graph.no_failures g in
  let n = Graph.num_nodes g in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_commodity k =
    let a, b = t.prs.(k) in
    let bad = ref None in
    iter_row t k (fun e x ->
        if !bad = None then begin
          if x < -.tol || x > 1.0 +. tol then
            bad :=
              Some
                (Printf.sprintf "commodity %d: frac %g on link %d outside [0,1]"
                   k x e)
          else if failed.(e) && x > tol then
            bad :=
              Some (Printf.sprintf "commodity %d: flow %g on failed link %d" k x e)
        end);
    match !bad with
    | Some msg -> Error msg
    | None ->
      let inflow = Array.make n 0.0 and outflow = Array.make n 0.0 in
      iter_row t k (fun e x ->
          inflow.(Graph.dst g e) <- inflow.(Graph.dst g e) +. x;
          outflow.(Graph.src g e) <- outflow.(Graph.src g e) +. x);
      (* [R3]: nothing returns to the source. *)
      if inflow.(a) > tol then
        err "commodity %d (%d->%d): flow %g returns to source" k a b inflow.(a)
      else begin
        (* [R2]: the source emits 1 (or 0 when partial routing allowed). *)
        let emitted = outflow.(a) in
        let total_ok =
          Float.abs (emitted -. 1.0) <= tol || (partial && Float.abs emitted <= tol)
        in
        if not total_ok then
          err "commodity %d (%d->%d): source emits %g, expected 1" k a b emitted
        else begin
          (* [R1]: conservation at intermediate nodes. *)
          let violation = ref None in
          for v = 0 to n - 1 do
            if v <> a && v <> b && !violation = None then
              if Float.abs (inflow.(v) -. outflow.(v)) > tol then
                violation :=
                  Some
                    (Printf.sprintf
                       "commodity %d (%d->%d): conservation violated at node %d (in %g, out %g)"
                       k a b v inflow.(v) outflow.(v))
          done;
          match !violation with Some msg -> Error msg | None -> Ok ()
        end
      end
  in
  let rec check k =
    if k >= num_commodities t then Ok ()
    else match check_commodity k with Ok () -> check (k + 1) | Error _ as e -> e
  in
  check 0

let loads g ~demands t =
  if Array.length demands <> num_commodities t then
    invalid_arg "Routing.loads: demands length mismatch";
  let into = Array.make (Graph.num_links g) 0.0 in
  Array.iteri
    (fun k d -> if d <> 0.0 then Rowvec.scatter_add ~scale:d (rget t.rows k) ~into)
    demands;
  into

let mlu g ~loads =
  let u = ref 0.0 in
  for e = 0 to Graph.num_links g - 1 do
    let x = loads.(e) /. Graph.capacity g e in
    if x > !u then u := x
  done;
  !u

let bottleneck g ~loads =
  let best = ref 0 and best_u = ref neg_infinity in
  for e = 0 to Graph.num_links g - 1 do
    let x = loads.(e) /. Graph.capacity g e in
    if x > !best_u then begin
      best := e;
      best_u := x
    end
  done;
  !best

let mean_delay g t k =
  let acc = ref 0.0 in
  iter_row t k (fun e x -> acc := !acc +. (x *. Graph.delay g e));
  !acc

(* One pass over the row: [Graph.in_links]/[out_links] list links in
   ascending id, the order [iter_row] visits them, so each sum adds the
   same terms in the same order as a per-link [get] loop would. *)
let delivered g t k =
  let _, b = t.prs.(k) in
  let inflow = ref 0.0 and outflow = ref 0.0 in
  iter_row t k (fun e x ->
      if Graph.dst g e = b then inflow := !inflow +. x
      else if Graph.src g e = b then outflow := !outflow +. x);
  !inflow -. !outflow
