module Rowvec = R3_util.Rowvec

module Backend = struct
  type t = Dense | Sparse | Auto

  let to_string = function
    | Dense -> "dense"
    | Sparse -> "sparse"
    | Auto -> "auto"

  let of_string = function
    | "dense" -> Some Dense
    | "sparse" -> Some Sparse
    | "auto" -> Some Auto
    | _ -> None
end

let auto_nnz_ratio = 0.25

(* New-row materializations per representation; row *sharing* (copy,
   untouched fold_failure rows) deliberately does not count. *)
module Obs = struct
  module M = R3_util.Metrics

  let dense_rows = M.counter "r3.routing.dense_rows"
  let sparse_rows = M.counter "r3.routing.sparse_rows"
end

type payload = D of float array | S of Rowvec.t

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

(* Rows live in chunks of 128 payload pointers, not one flat array: a
   folded child needs its own row table, and a flat [nk]-entry pointer
   array is a major-heap allocation (beyond the minor limit) whose copy
   pays a write-barrier per element and whose garbage drives major GC
   slices — a per-fold tax both backends paid equally. Chunks stay in
   the minor heap: copying is plain memcpy and dead children vanish in
   the next minor collection. Chunks are always exclusively owned by
   their routing (only payloads are copy-on-write shared). *)
let chunk_bits = 7

let chunk_size = 1 lsl chunk_bits

type t = {
  prs : (Graph.node * Graph.node) array;
  m : int;
  bk : Backend.t;
  rows : payload array array;
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

let count_payload = function
  | D _ -> R3_util.Metrics.incr Obs.dense_rows
  | S _ -> R3_util.Metrics.incr Obs.sparse_rows

let copy_payload = function
  | D a -> D (Array.copy a)
  | S r -> S (Rowvec.copy r)

let create ?(backend = Backend.Dense) g ~pairs =
  let m = Graph.num_links g in
  let nk = Array.length pairs in
  let mk _ =
    match backend with
    | Backend.Dense -> D (Array.make m 0.0)
    | Backend.Sparse | Backend.Auto -> S (Rowvec.create ~cap:4 ())
  in
  (match backend with
  | Backend.Dense -> R3_util.Metrics.add Obs.dense_rows nk
  | Backend.Sparse | Backend.Auto -> R3_util.Metrics.add Obs.sparse_rows nk);
  {
    prs = pairs;
    m;
    bk = backend;
    rows = rows_init nk mk;
    own_gen = Array.make nk 0;
    share_gen = Atomic.make 0;
    cols = Atomic.make None;
  }

let backend t = t.bk

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

let payload_get data e =
  match data with D a -> a.(e) | S r -> Rowvec.get r e

let get t k e = payload_get (rget t.rows k) e

(* Un-share a row before mutating it in place. Mutators require exclusive
   access to [t], so the plain [own_gen] read/write cannot race. *)
let own t k =
  let gen = Atomic.get t.share_gen in
  if t.own_gen.(k) < gen then begin
    let data = copy_payload (rget t.rows k) in
    count_payload data;
    rset t.rows k data;
    t.own_gen.(k) <- gen
  end

(* Under [Auto], a sparse row that outgrew the ratio flips to dense. *)
let maybe_densify t data =
  match (t.bk, data) with
  | Backend.Auto, S r
    when float_of_int (Rowvec.nnz r) > auto_nnz_ratio *. float_of_int t.m ->
    let d = D (Rowvec.to_dense t.m r) in
    count_payload d;
    d
  | _ -> data

let set t k e x =
  (* Normalize -0.0 to +0.0 so dense storage cannot diverge (by sign bit
     alone) from sparse storage, which drops exact zeros structurally. *)
  let x = x +. 0.0 in
  own t k;
  (match rget t.rows k with
  | D a -> a.(e) <- x
  | S r ->
    Rowvec.set r e x;
    rset t.rows k (maybe_densify t (S r)));
  Atomic.set t.cols None

let iter_row t k f =
  match rget t.rows k with
  | D a ->
    for e = 0 to Array.length a - 1 do
      let x = Array.unsafe_get a e in
      if x <> 0.0 then f e x
    done
  | S r -> Rowvec.iter f r

let fold_row t k ~init ~f =
  let acc = ref init in
  iter_row t k (fun e x -> acc := f !acc e x);
  !acc

let row_nnz t k =
  match rget t.rows k with
  | D a ->
    let c = ref 0 in
    Array.iter (fun x -> if x <> 0.0 then incr c) a;
    !c
  | S r -> Rowvec.nnz r

let row_dense t k =
  match rget t.rows k with
  | D a -> Array.copy a
  | S r -> Rowvec.to_dense t.m r

let row_vec t k =
  match rget t.rows k with D a -> Rowvec.of_dense a | S r -> Rowvec.copy r

let set_row_dense t k row =
  if Array.length row <> t.m then invalid_arg "Routing.set_row_dense: bad length";
  let data =
    match t.bk with
    | Backend.Dense -> D (Array.map (fun x -> x +. 0.0) row)
    | Backend.Sparse -> S (Rowvec.of_dense row)
    | Backend.Auto ->
      let r = Rowvec.of_dense row in
      if float_of_int (Rowvec.nnz r) > auto_nnz_ratio *. float_of_int t.m then
        D (Array.map (fun x -> x +. 0.0) row)
      else S r
  in
  count_payload data;
  rset t.rows k data;
  t.own_gen.(k) <- Atomic.get t.share_gen;
  Atomic.set t.cols None

(* Exact-representation accessors for the plan store: a snapshot must
   round-trip the payload kind itself (not just the values), so a reloaded
   plan keeps its dense/sparse row mix bit-for-bit. *)
let row_storage t k =
  match rget t.rows k with
  | D a -> `Dense (Array.copy a)
  | S r -> `Sparse (Rowvec.copy r)

let set_row_storage t k storage =
  let data =
    match storage with
    | `Dense a ->
      if Array.length a <> t.m then
        invalid_arg "Routing.set_row_storage: bad dense length";
      D a
    | `Sparse r ->
      Rowvec.iter
        (fun e _ ->
          if e < 0 || e >= t.m then
            invalid_arg "Routing.set_row_storage: sparse index out of range")
        r;
      S r
  in
  count_payload data;
  rset t.rows k data;
  t.own_gen.(k) <- Atomic.get t.share_gen;
  Atomic.set t.cols None

let to_dense_matrix t = Array.init (num_commodities t) (row_dense t)

(* ---- bit-level comparison ----

   A payload handed to a second routing ([copy], [fold_failure]) is
   frozen: every holder sees the row as shared, and [own] copies a shared
   row before any write. So one payload object holds the same bits for
   every routing that holds it, for as long as either does. Nothing
   here allocates: no closures, no boxed floats. *)

let dense_bits_equal a b =
  let n = Array.length a in
  Array.length b = n
  &&
  let e = ref 0 in
  while
    !e < n
    && Int64.bits_of_float (Array.unsafe_get a !e)
       = Int64.bits_of_float (Array.unsafe_get b !e)
  do
    incr e
  done;
  !e = n

let payload_bits_equal pa pb =
  pa == pb
  ||
  match (pa, pb) with
  | D a, D b -> a == b || dense_bits_equal a b
  | S ra, S rb -> ra == rb || Rowvec.bits_equal ra rb
  | D a, S r | S r, D a -> Rowvec.bits_equal_dense a r

let bits_equal a b =
  let nk = num_commodities a in
  nk = num_commodities b
  && (nk = 0 || a.m = b.m)
  &&
  let k = ref 0 in
  while !k < nk && payload_bits_equal (rget a.rows !k) (rget b.rows !k) do
    incr k
  done;
  !k = nk

let shares_row a b k =
  if k < 0 || k >= num_commodities a || k >= num_commodities b then
    invalid_arg "Routing.shares_row: bad row";
  rget a.rows k == rget b.rows k

let sparse_rows t =
  let acc = ref 0 in
  for k = 0 to num_commodities t - 1 do
    match rget t.rows k with S _ -> incr acc | D _ -> ()
  done;
  !acc

let dense_rows t =
  let acc = ref 0 in
  for k = 0 to num_commodities t - 1 do
    match rget t.rows k with D _ -> incr acc | S _ -> ()
  done;
  !acc

let nnz t =
  let acc = ref 0 in
  for k = 0 to num_commodities t - 1 do
    acc := !acc + row_nnz t k
  done;
  !acc

(* ---- column support index ---- *)

let ensure_cols t =
  match Atomic.get t.cols with
  | Some c -> c
  | None ->
    let c = Array.make t.m [] in
    for k = num_commodities t - 1 downto 0 do
      match rget t.rows k with
      | D a ->
        for e = t.m - 1 downto 0 do
          if Array.unsafe_get a e <> 0.0 then c.(e) <- k :: c.(e)
        done
      | S r -> Rowvec.iter (fun e _ -> c.(e) <- k :: c.(e)) r
    done;
    let ci = { cbase = c; overlays = [] } in
    (* Published only once fully built: a reader that observes [Some ci]
       observes its contents. Concurrent builders construct identical
       indexes from the same frozen rows; last publication wins. *)
    Atomic.set t.cols (Some ci);
    ci

let prepare t =
  match t.bk with
  | Backend.Dense -> ()
  | Backend.Sparse | Backend.Auto -> ignore (ensure_cols t : colidx)

(* Visit every row that may have support at [e]: the base column plus any
   overlay whose detour support contains [e]. Duplicates are possible and
   harmless (the caller re-reads the live coefficient each time). *)
let iter_candidates ci e f =
  List.iter f ci.cbase.(e);
  List.iter
    (fun (vec, rows) -> if Rowvec.get vec e <> 0.0 then List.iter f rows)
    ci.overlays

(* ---- failure folding (equations (8)-(10)) ---- *)

let rescale_detour ?(tol = 1e-9) t e =
  let data = rget t.rows e in
  let self = payload_get data e in
  if self >= 1.0 -. tol then Rowvec.create ~cap:1 ()
  else begin
    let scale = 1.0 /. (1.0 -. self) in
    match data with
    | D a ->
      let r = Rowvec.create ~cap:8 () in
      for l = 0 to t.m - 1 do
        if l <> e then begin
          let x = Array.unsafe_get a l *. scale in
          (* ascending indices: Rowvec.set appends in O(1) *)
          if Float.abs x > 0.0 then Rowvec.set r l x
        end
      done;
      r
    | S row ->
      let r = Rowvec.copy row in
      Rowvec.clear r e;
      Rowvec.scale r scale;
      r
  end

(* (9)/(10) on one row: [row + on_e * xi], entry [e] zeroed. The dense
   branch updates only xi's support — identical arithmetic to a full
   [for l] loop because adding [on_e *. 0.0 = +0.0] to a non-negative
   entry is the identity. The sparse branch is [Rowvec.merged]: one
   ascending merge pass, [r]-only entries verbatim, [xi]-only entries
   [on_e *. x] (same bits as dense's [0.0 +. (on_e *. x)] since [xi]
   never stores [-0.0]), collisions [rv +. (on_e *. x)], exact zeros
   dropped (the dense image is unchanged either way). *)
let fold_payload ~e ~xi data on_e =
  match data with
  | D a ->
    let a' = Array.copy a in
    if on_e > 0.0 then
      Rowvec.iter
        (fun l x ->
          Array.unsafe_set a' l (Array.unsafe_get a' l +. (on_e *. x)))
        xi;
    (* Unconditional, as in the paper kernel: also normalizes a stray
       [-0.0] (negative solver noise gets zeroed, not detoured). *)
    a'.(e) <- 0.0;
    D a'
  | S r -> S (Rowvec.merged ~skip:e ~y:r ~x:xi on_e)

let fold_failure t ~e ~xi ~replace_with_detour =
  let nk = num_commodities t in
  (* Seal the parent: one atomic generation bump marks every parent row
     "possibly shared". This is the only write to [t] on the fold path,
     so concurrent folds from the same parent are race-free. The child
     starts as a full payload share ([own_gen] all behind its
     generation); only candidate rows (support possibly containing [e])
     are re-read, everything else is untouched by construction. *)
  Atomic.incr t.share_gen;
  let rows = rows_copy t.rows in
  let own_gen = Array.make nk 0 in
  let touched = ref [] and copied = ref 0 in
  (* Counter deltas are batched and published once per fold: a per-row
     atomic increment costs as much as the row copy it is counting. *)
  let new_dense = ref 0 and new_sparse = ref 0 in
  let install k data =
    let data = maybe_densify t data in
    (match data with D _ -> incr new_dense | S _ -> incr new_sparse);
    rset rows k data;
    own_gen.(k) <- 1;
    incr copied;
    touched := k :: !touched
  in
  let visit k =
    if not (replace_with_detour && k = e) then begin
      (* Read through [rows]: superset indices can list a row twice, and
         after the first fold its [e] entry is gone. *)
      let on_e = payload_get (rget rows k) e in
      if on_e > 0.0 then install k (fold_payload ~e ~xi (rget rows k) on_e)
      else if on_e <> 0.0 || Float.sign_bit on_e then
        (* -0.0 or negative solver noise: only entry [e] is zeroed. *)
        install k
          (match rget rows k with
          | D a ->
            let a' = Array.copy a in
            a'.(e) <- 0.0;
            D a'
          | S r ->
            let r' = Rowvec.copy r in
            Rowvec.clear r' e;
            S r')
      (* on_e = +0.0: a stored zero; the row stays shared. *)
    end
  in
  (* The support index is the sparse substrate's fold strategy: candidate
     rows come from column [e]'s support. The pure-dense backend keeps
     the historical semantics — scan every commodity row — both because
     a dense matrix has no support structure to index without paying the
     O(nk * m) scan the index exists to avoid, and so the benchmark
     compares substrate-on against substrate-off. Either way every row
     with a nonzero at [e] is visited, so results are bit-identical. *)
  let cols' =
    match t.bk with
    | Backend.Dense ->
      for k = 0 to nk - 1 do
        visit k
      done;
      None
    | Backend.Sparse | Backend.Auto ->
      let ci = ensure_cols t in
      iter_candidates ci e visit;
      Some ci
  in
  if replace_with_detour then
    install e
      (match t.bk with
      | Backend.Dense -> D (Rowvec.to_dense t.m xi)
      | Backend.Sparse | Backend.Auto -> S (Rowvec.copy xi));
  (* Inherit the support index: touched rows' supports grew by at most
     xi's support, recorded as one overlay. Stale entries (column [e],
     rows that shrank) are harmless supersets. A chain of folds would
     accumulate one overlay per ancestor, degrading candidate lookup
     back toward a full scan and retaining every ancestor's xi — so past
     [max_overlays] the child drops the index and lazily rebuilds it
     from its own rows on its next fold (O(nnz), amortized over the
     chain). *)
  let cols' =
    match (cols', !touched) with
    | None, _ -> None
    | Some ci, [] -> Some ci
    | Some ci, tch ->
      if List.length ci.overlays >= max_overlays then None
      else Some { ci with overlays = (Rowvec.copy xi, tch) :: ci.overlays }
  in
  if !new_dense > 0 then R3_util.Metrics.add Obs.dense_rows !new_dense;
  if !new_sparse > 0 then R3_util.Metrics.add Obs.sparse_rows !new_sparse;
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

let add_loads g ~demands t ~into =
  let m = Graph.num_links g in
  if Array.length into <> m then invalid_arg "Routing.add_loads: bad accumulator";
  if Array.length demands <> num_commodities t then
    invalid_arg "Routing.add_loads: demands length mismatch";
  Array.iteri
    (fun k d ->
      if d <> 0.0 then begin
        match rget t.rows k with
        | D row ->
          for e = 0 to m - 1 do
            Array.unsafe_set into e
              (Array.unsafe_get into e +. (d *. Array.unsafe_get row e))
          done
        | S row -> Rowvec.scatter_add ~scale:d row ~into
      end)
    demands

let loads g ~demands t =
  let acc = Array.make (Graph.num_links g) 0.0 in
  add_loads g ~demands t ~into:acc;
  acc

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

let delivered g t k =
  let _, b = t.prs.(k) in
  let inflow = ref 0.0 and outflow = ref 0.0 in
  Array.iter (fun e -> inflow := !inflow +. get t k e) (Graph.in_links g b);
  Array.iter (fun e -> outflow := !outflow +. get t k e) (Graph.out_links g b);
  !inflow -. !outflow
