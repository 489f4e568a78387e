(* Sparse LU basis factorization for the revised simplex.

   [refactor] runs a left-looking (Gilbert-Peierls style) column LU over
   the basis columns with threshold partial pivoting: columns are
   processed in ascending-nonzero order and, within a column, the pivot
   row is the sparsest one (static row count, an approximate Markowitz
   rule) among rows within [Tol.lu_threshold] of the largest eligible
   magnitude. Between refactorizations the basis evolves by product-form
   eta updates: each simplex pivot appends one sparse eta column, and
   FTRAN/BTRAN apply the eta file after/before the triangular solves.

   Solves are hypersparse: the caller hands in the nonzero pattern of
   the right-hand side, the triangular sweeps visit only the elimination
   steps reachable from it, and the result's pattern is handed back; a
   scatter-form transposed adjacency built at refactorization serves the
   BTRAN direction. A step queue keeps the reachable steps in elimination
   order: a bitset over steps, a summary bit per nonempty word and a
   cursor. It pops the smallest pending step, as a binary heap with a
   membership mark would, so every sweep runs the same floating-point
   operations in the same order as a heap-ordered one. Every sweep
   pushes only steps beyond the one it pops, so the cursor only moves
   forward, and the work is O(touched nonzeros) plus a word scan per
   1,024 steps passed. Past an input density cutoff the solves run plain
   dense sweeps instead. The cutoff fixes the output bits as well as the
   cost: the dense BTRAN gathers its L^T pass in L-column order where
   the sparse one scatters in step order, so the two round differently.

   The factors live in flat CSC arrays ([l_ptr]/[l_idx]/[l_v], likewise
   for U and the eta file) that persist across refactorizations.
   [refactor] reads the basis columns straight out of the caller's
   column store and writes L and U entries in place: it allocates
   nothing per column and calls no function per entry except the
   queue's. An eta append copies into the pool. Both matter because the
   simplex refactorizes every 128 pivots and appends an eta on each. *)

module R = R3_util.Rowvec

type t = {
  mutable m : int;  (* dimension of the factored basis; 0 = empty *)
  (* Elimination step [k] pivots original row [pivrow.(k)] for basis
     position [colorder.(k)]; [rowpos] is the inverse of [pivrow] and
     [posstep] the inverse of [colorder]. *)
  mutable pivrow : int array;
  mutable rowpos : int array;
  mutable colorder : int array;
  mutable posstep : int array;
  (* L: unit lower triangular in pivot order, flat CSC. Column [k]
     holds the multipliers (original-row index, value) of rows unpivoted
     at step [k]. U: column [k] holds entries at earlier steps, plus the
     pivot [u_diag.(k)]. *)
  mutable l_ptr : int array;  (* length m+1 *)
  mutable l_idx : int array;
  mutable l_v : float array;
  mutable u_ptr : int array;
  mutable u_idx : int array;
  mutable u_v : float array;
  mutable u_diag : float array;
  (* Transposed adjacency (CSR), rebuilt at refactorization, for the
     scatter-form BTRAN sweeps: [ur] maps step [tt] to the later columns
     holding a U entry at [tt]; [lr] maps original row [i] to the steps
     whose L column holds [i]. *)
  mutable ur_ptr : int array;
  mutable ur_idx : int array;
  mutable ur_v : float array;
  mutable lr_ptr : int array;
  mutable lr_idx : int array;
  mutable lr_v : float array;
  (* Product-form eta file, in basis-position space: eta [e] pivots at
     position [eta_r.(e)] on [eta_piv.(e)], and its off-pivot entries
     are [eta_ptr.(e)] to [eta_ptr.(e + 1) - 1] of the flat pool
     [eta_idx]/[eta_v], which holds [eta_nnz] entries. *)
  mutable n_eta : int;
  mutable eta_r : int array;
  mutable eta_piv : float array;
  mutable eta_ptr : int array;  (* length > n_eta; eta_ptr.(0) = 0 *)
  mutable eta_idx : int array;
  mutable eta_v : float array;
  mutable eta_nnz : int;
  (* scratch, all persistent across calls *)
  mutable wx : float array;  (* dense accumulation column *)
  mutable wmark : Bytes.t;
  mutable wtouch : int array;
  mutable ws : float array;  (* step-space vector for the solves *)
  mutable wv : float array;  (* second step-space vector (BTRAN) *)
  mutable wpat : int array;  (* pattern buffer for the dense entry points *)
  mutable rcount : int array;  (* static row counts (Markowitz bias) *)
  mutable order : int array;
  mutable colnnz : int array;
  mutable tr_cur : int array;  (* transpose fill cursors, length m+1 *)
  (* Queue of pending elimination steps: one bit per step in [qbits] (32
     steps a word), one bit per nonempty [qbits] word in [qsum], [qn]
     pending steps, and none of them in a word below [qcur]. *)
  mutable qbits : int array;
  mutable qsum : int array;
  mutable qcur : int;
  mutable qn : int;
}

let create () =
  {
    m = 0;
    pivrow = [||];
    rowpos = [||];
    colorder = [||];
    posstep = [||];
    l_ptr = [| 0 |];
    l_idx = [||];
    l_v = [||];
    u_ptr = [| 0 |];
    u_idx = [||];
    u_v = [||];
    u_diag = [||];
    ur_ptr = [||];
    ur_idx = [||];
    ur_v = [||];
    lr_ptr = [||];
    lr_idx = [||];
    lr_v = [||];
    n_eta = 0;
    eta_r = Array.make 8 0;
    eta_piv = Array.make 8 0.0;
    eta_ptr = Array.make 9 0;
    eta_idx = [||];
    eta_v = [||];
    eta_nnz = 0;
    wx = [||];
    wmark = Bytes.empty;
    wtouch = [||];
    ws = [||];
    wv = [||];
    wpat = [||];
    rcount = [||];
    order = [||];
    colnnz = [||];
    tr_cur = [||];
    qbits = [||];
    qsum = [||];
    qcur = max_int;
    qn = 0;
  }

let eta_count t = t.n_eta
let eta_entries t = t.eta_nnz
let needs_refactor t = t.n_eta >= Tol.refactor_every

(* Sized by capacity, not by [m]: a constraint-generation session adds
   rows every round, so capacity doubles rather than tracking each [m]. *)
let ensure_dim t m =
  if Array.length t.pivrow < m then begin
    let cap = Int.max m (2 * Array.length t.pivrow) in
    t.pivrow <- Array.make cap 0;
    t.rowpos <- Array.make cap (-1);
    t.colorder <- Array.make cap 0;
    t.posstep <- Array.make cap 0;
    t.l_ptr <- Array.make (cap + 1) 0;
    t.u_ptr <- Array.make (cap + 1) 0;
    t.u_diag <- Array.make cap 0.0;
    t.ur_ptr <- Array.make (cap + 1) 0;
    t.lr_ptr <- Array.make (cap + 1) 0;
    t.wx <- Array.make cap 0.0;
    t.wmark <- Bytes.make cap '\000';
    t.wtouch <- Array.make cap 0;
    t.ws <- Array.make cap 0.0;
    t.wv <- Array.make cap 0.0;
    t.wpat <- Array.make cap 0;
    t.rcount <- Array.make cap 0;
    t.order <- Array.make cap 0;
    t.colnnz <- Array.make cap 0;
    t.tr_cur <- Array.make (cap + 1) 0;
    let words = (cap + 31) / 32 in
    t.qbits <- Array.make words 0;
    t.qsum <- Array.make ((words + 31) / 32) 0
  end;
  t.m <- m

let grow_int a need =
  if Array.length a >= need then a
  else begin
    let b = Array.make (Int.max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_float a need =
  if Array.length a >= need then a
  else begin
    let b = Array.make (Int.max need (2 * Array.length a)) 0.0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Step queue over [t.qbits]/[t.qsum]. [qpop] returns the smallest
   pending key, which is what a min-heap with a membership mark per step
   would pop, so a sweep visits the same steps in the same order. Keys
   are steps in the forward sweeps and mirrored steps ([mirror]) in the
   backward ones. A push of a pending key is a no-op, which keeps every
   step processed exactly once per sweep. The sweeps push only keys
   beyond the one just popped (L and U^T fill lands on later steps, U
   and L^T fill on earlier ones), so [qcur] only moves forward: a pop
   reads its word, or scans the summary from there to the next nonempty
   word. *)

(* Lowest set bit of a nonzero 32-bit word, by de Bruijn multiplication. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let lowest_bit x =
  Array.unsafe_get debruijn ((((x land -x) * 0x077CB531) lsr 27) land 31)

let mirror t tt = t.m - 1 - tt

let qpush t k =
  let w = k lsr 5 in
  let word = Array.unsafe_get t.qbits w in
  let bit = 1 lsl (k land 31) in
  if word land bit = 0 then begin
    if word = 0 then begin
      let sw = w lsr 5 in
      t.qsum.(sw) <- t.qsum.(sw) lor (1 lsl (w land 31))
    end;
    Array.unsafe_set t.qbits w (word lor bit);
    t.qn <- t.qn + 1;
    if w < t.qcur then t.qcur <- w
  end

(* Requires [t.qn > 0]. When [qcur]'s word is empty, so is every word
   below it, and their summary bits are clear: the next nonempty word is
   the lowest summary bit from [qcur]'s summary word on. *)
let qpop t =
  let w =
    if Array.unsafe_get t.qbits t.qcur <> 0 then t.qcur
    else begin
      let sw = ref (t.qcur lsr 5) in
      while t.qsum.(!sw) = 0 do
        incr sw
      done;
      (!sw lsl 5) lor lowest_bit t.qsum.(!sw)
    end
  in
  let word = Array.unsafe_get t.qbits w in
  let rest = word land (word - 1) in
  Array.unsafe_set t.qbits w rest;
  if rest = 0 then begin
    let sw = w lsr 5 in
    t.qsum.(sw) <- t.qsum.(sw) land lnot (1 lsl (w land 31))
  end;
  t.qn <- t.qn - 1;
  t.qcur <- (if t.qn = 0 then max_int else w);
  (w lsl 5) lor lowest_bit word

(* Factor the basis whose position-[k] column is [cols.(basis.(k))]. A
   column left with no pivot above [Tol.lu_singular] is rank deficient:
   it gets no elimination step, and once every column is processed each
   deficient position is paired with a row no column pivoted on, in
   ascending order of both, and factored as the unit column of that row
   (an empty L and U column, diagonal 1). Returns those (position, row)
   pairs - empty on a nonsingular basis - so the factors describe the
   basis with the pairs swapped in. Clears the eta file. *)
let refactor t ~m ~cols ~basis =
  ensure_dim t m;
  t.n_eta <- 0;
  t.eta_nnz <- 0;
  let rowpos = t.rowpos and rcount = t.rcount and colnnz = t.colnnz in
  let order = t.order and pivrow = t.pivrow and colorder = t.colorder in
  let l_ptr = t.l_ptr and u_ptr = t.u_ptr and u_diag = t.u_diag in
  Array.fill rowpos 0 m (-1);
  Array.fill rcount 0 m 0;
  (* Column order: ascending nonzero count (approximate Markowitz column
     rule), stable counting sort; row counts of B for the within-column
     row tie-break. *)
  let maxnnz = ref 0 in
  for c = 0 to m - 1 do
    let col = cols.(basis.(c)) in
    let idx = R.indices col and n = R.nnz col in
    colnnz.(c) <- n;
    if n > !maxnnz then maxnnz := n;
    for s = 0 to n - 1 do
      let i = Array.unsafe_get idx s in
      rcount.(i) <- rcount.(i) + 1
    done
  done;
  let cnt = Array.make (!maxnnz + 2) 0 in
  for c = 0 to m - 1 do
    cnt.(colnnz.(c) + 1) <- cnt.(colnnz.(c) + 1) + 1
  done;
  for i = 1 to !maxnnz + 1 do
    cnt.(i) <- cnt.(i) + cnt.(i - 1)
  done;
  for c = 0 to m - 1 do
    let b = colnnz.(c) in
    order.(cnt.(b)) <- c;
    cnt.(b) <- cnt.(b) + 1
  done;
  let wx = t.wx and wmark = t.wmark and wtouch = t.wtouch in
  let lp = ref 0 and up = ref 0 in
  l_ptr.(0) <- 0;
  u_ptr.(0) <- 0;
  let steps = ref 0 and deficient = ref [] in
  for oi = 0 to m - 1 do
    let c = order.(oi) in
    let k = !steps in
    (* load column c; entries on already-pivoted rows queue their step *)
    let touched = ref 0 in
    let col = cols.(basis.(c)) in
    let idx = R.indices col and v = R.values col in
    for s = 0 to R.nnz col - 1 do
      let i = Array.unsafe_get idx s in
      if Bytes.unsafe_get wmark i = '\000' then begin
        Bytes.unsafe_set wmark i '\001';
        wtouch.(!touched) <- i;
        incr touched;
        let tt = rowpos.(i) in
        if tt >= 0 then qpush t tt
      end;
      wx.(i) <- wx.(i) +. Array.unsafe_get v s
    done;
    (* left-looking elimination in ascending step order: the queue holds
       exactly the earlier steps whose pivot row carries a nonzero, and
       eliminating step [tt] only fills rows pivoted later, so the
       traversal is complete without scanning steps 0..k-1. The U column
       (at most [k] entries, at earlier steps, in pop order) is written
       straight into the factor. *)
    if Array.length t.u_idx < !up + k then begin
      t.u_idx <- grow_int t.u_idx (!up + k);
      t.u_v <- grow_float t.u_v (!up + k)
    end;
    let u_idx = t.u_idx and u_v = t.u_v and l_idx = t.l_idx and l_v = t.l_v in
    let u_end = ref !up in
    while t.qn > 0 do
      let tt = qpop t in
      let xt = wx.(pivrow.(tt)) in
      if Float.abs xt > Tol.pivot_drop then begin
        u_idx.(!u_end) <- tt;
        u_v.(!u_end) <- xt;
        incr u_end;
        for s = l_ptr.(tt) to l_ptr.(tt + 1) - 1 do
          let i = Array.unsafe_get l_idx s in
          if Bytes.unsafe_get wmark i = '\000' then begin
            Bytes.unsafe_set wmark i '\001';
            wtouch.(!touched) <- i;
            incr touched;
            let tt2 = rowpos.(i) in
            if tt2 >= 0 then qpush t tt2
          end;
          wx.(i) <- wx.(i) -. (Array.unsafe_get l_v s *. xt)
        done
      end
    done;
    (* pivot choice among not-yet-pivoted rows *)
    let amax = ref 0.0 in
    for s = 0 to !touched - 1 do
      let i = wtouch.(s) in
      if rowpos.(i) < 0 then begin
        let a = Float.abs wx.(i) in
        if a > !amax then amax := a
      end
    done;
    if !amax <= Tol.lu_singular then deficient := c :: !deficient
    else begin
      let cutoff = Tol.lu_threshold *. !amax in
      let best = ref (-1) and best_rc = ref max_int and best_a = ref 0.0 in
      for s = 0 to !touched - 1 do
        let i = wtouch.(s) in
        if rowpos.(i) < 0 then begin
          let a = Float.abs wx.(i) in
          if a >= cutoff then begin
            let rc = rcount.(i) in
            if rc < !best_rc || (rc = !best_rc && a > !best_a) then begin
              best := i;
              best_rc := rc;
              best_a := a
            end
          end
        end
      done;
      let p = !best in
      let d = wx.(p) in
      colorder.(k) <- c;
      pivrow.(k) <- p;
      rowpos.(p) <- k;
      u_diag.(k) <- d;
      (* L column: multipliers on the remaining unpivoted rows *)
      if Array.length l_idx < !lp + !touched then begin
        t.l_idx <- grow_int l_idx (!lp + !touched);
        t.l_v <- grow_float l_v (!lp + !touched)
      end;
      let l_idx = t.l_idx and l_v = t.l_v in
      for s = 0 to !touched - 1 do
        let i = wtouch.(s) in
        if rowpos.(i) < 0 && Float.abs wx.(i) > Tol.pivot_drop then begin
          l_idx.(!lp) <- i;
          l_v.(!lp) <- wx.(i) /. d;
          incr lp
        end
      done;
      l_ptr.(k + 1) <- !lp;
      up := !u_end;
      u_ptr.(k + 1) <- !up;
      steps := k + 1
    end;
    (* reset workspace *)
    for s = 0 to !touched - 1 do
      let i = wtouch.(s) in
      wx.(i) <- 0.0;
      Bytes.unsafe_set wmark i '\000'
    done
  done;
  (* Rank-deficiency completion: deficient positions take the unit
     columns of the unpivoted rows, as trailing steps with empty L and
     U columns. *)
  let pairs = ref [] in
  if !deficient <> [] then begin
    let r = ref 0 in
    let defic = Array.of_list !deficient in
    Array.sort Int.compare defic;
    for d = 0 to Array.length defic - 1 do
      let c = defic.(d) in
      while rowpos.(!r) >= 0 do
        incr r
      done;
      let k = !steps in
      colorder.(k) <- c;
      pivrow.(k) <- !r;
      rowpos.(!r) <- k;
      u_diag.(k) <- 1.0;
      l_ptr.(k + 1) <- !lp;
      u_ptr.(k + 1) <- !up;
      steps := k + 1;
      pairs := (c, !r) :: !pairs
    done
  end;
  let posstep = t.posstep in
  for k = 0 to m - 1 do
    posstep.(colorder.(k)) <- k
  done;
  (* Transposed adjacency for the BTRAN scatter sweeps. *)
  let unnz = u_ptr.(m) and lnnz = l_ptr.(m) in
  t.ur_idx <- grow_int t.ur_idx unnz;
  t.ur_v <- grow_float t.ur_v unnz;
  t.lr_idx <- grow_int t.lr_idx lnnz;
  t.lr_v <- grow_float t.lr_v lnnz;
  let transpose ~ptr ~idx ~(v : float array) ~nnz ~tptr ~tidx ~(tv : float array) =
    let cur = t.tr_cur in
    Array.fill tptr 0 (m + 1) 0;
    for s = 0 to nnz - 1 do
      tptr.(idx.(s) + 1) <- tptr.(idx.(s) + 1) + 1
    done;
    for i = 1 to m do
      tptr.(i) <- tptr.(i) + tptr.(i - 1)
    done;
    for i = 0 to m do
      cur.(i) <- tptr.(i)
    done;
    for k = 0 to m - 1 do
      for s = ptr.(k) to ptr.(k + 1) - 1 do
        let w = cur.(idx.(s)) in
        tidx.(w) <- k;
        tv.(w) <- v.(s);
        cur.(idx.(s)) <- w + 1
      done
    done
  in
  transpose ~ptr:u_ptr ~idx:t.u_idx ~v:t.u_v ~nnz:unnz ~tptr:t.ur_ptr ~tidx:t.ur_idx
    ~tv:t.ur_v;
  transpose ~ptr:l_ptr ~idx:t.l_idx ~v:t.l_v ~nnz:lnnz ~tptr:t.lr_ptr ~tidx:t.lr_idx
    ~tv:t.lr_v;
  List.rev !pairs

(* The queued sweeps win when the right-hand side touches few
   elimination steps; past this input density the plain dense sweeps
   (O(m + nnz factors), no per-entry queue traffic) are cheaper. The
   cutoff also fixes the output bits: the dense L^T pass gathers where
   the sparse one scatters, so moving it changes roundings. *)
let dense_cutoff t n = n * 8 > t.m

let scan_out t x pat =
  let rn = ref 0 in
  for i = 0 to t.m - 1 do
    if Array.unsafe_get x i <> 0.0 then begin
      pat.(!rn) <- i;
      incr rn
    end
  done;
  !rn

let apply_etas_fwd t x =
  for e = 0 to t.n_eta - 1 do
    let r = t.eta_r.(e) in
    let xr = x.(r) in
    if xr <> 0.0 then begin
      let tv = xr /. t.eta_piv.(e) in
      x.(r) <- tv;
      let ei = t.eta_idx and ev = t.eta_v in
      for s = t.eta_ptr.(e) to t.eta_ptr.(e + 1) - 1 do
        let i = Array.unsafe_get ei s in
        Array.unsafe_set x i
          (Array.unsafe_get x i -. (Array.unsafe_get ev s *. tv))
      done
    end
  done

let ftran_dense t x pat =
  let ws = t.ws in
  (* L z = b ascending: row [pivrow tt] is final once step [tt] runs *)
  for tt = 0 to t.m - 1 do
    let p = t.pivrow.(tt) in
    let v = x.(p) in
    ws.(tt) <- v;
    x.(p) <- 0.0;
    if v <> 0.0 then
      for s = t.l_ptr.(tt) to t.l_ptr.(tt + 1) - 1 do
        let i = Array.unsafe_get t.l_idx s in
        Array.unsafe_set x i
          (Array.unsafe_get x i -. (Array.unsafe_get t.l_v s *. v))
      done
  done;
  (* U y = z descending *)
  for tt = t.m - 1 downto 0 do
    let v = ws.(tt) /. t.u_diag.(tt) in
    ws.(tt) <- 0.0;
    if v <> 0.0 then begin
      x.(t.colorder.(tt)) <- v;
      for s = t.u_ptr.(tt) to t.u_ptr.(tt + 1) - 1 do
        let k2 = Array.unsafe_get t.u_idx s in
        Array.unsafe_set ws k2
          (Array.unsafe_get ws k2 -. (Array.unsafe_get t.u_v s *. v))
      done
    end
  done;
  apply_etas_fwd t x;
  scan_out t x pat

let btran_dense t x pat =
  (* eta transposes, newest first *)
  for e = t.n_eta - 1 downto 0 do
    let r = t.eta_r.(e) in
    let acc = ref x.(r) in
    let ei = t.eta_idx and ev = t.eta_v in
    for s = t.eta_ptr.(e) to t.eta_ptr.(e + 1) - 1 do
      acc :=
        !acc
        -. (Array.unsafe_get ev s *. Array.unsafe_get x (Array.unsafe_get ei s))
    done;
    x.(r) <- !acc /. t.eta_piv.(e)
  done;
  let ws = t.ws in
  (* U^T v = s ascending, gathering the earlier steps *)
  for tt = 0 to t.m - 1 do
    let p = t.colorder.(tt) in
    let acc = ref x.(p) in
    x.(p) <- 0.0;
    for s = t.u_ptr.(tt) to t.u_ptr.(tt + 1) - 1 do
      acc :=
        !acc
        -. (Array.unsafe_get t.u_v s *. Array.unsafe_get ws (Array.unsafe_get t.u_idx s))
    done;
    ws.(tt) <- !acc /. t.u_diag.(tt)
  done;
  (* L^T y = v descending: rows in L column [tt] were pivoted later, so
     their solution values already sit in [x] *)
  for tt = t.m - 1 downto 0 do
    let acc = ref ws.(tt) in
    ws.(tt) <- 0.0;
    for s = t.l_ptr.(tt) to t.l_ptr.(tt + 1) - 1 do
      acc :=
        !acc
        -. (Array.unsafe_get t.l_v s *. Array.unsafe_get x (Array.unsafe_get t.l_idx s))
    done;
    x.(t.pivrow.(tt)) <- !acc
  done;
  scan_out t x pat

(* Hypersparse FTRAN: [x] holds [b] over rows on entry and the solution
   over basis positions on exit; [pat]/[n] list the input nonzero rows
   and are overwritten with the result's positions. Returns the result
   count. Work is O(touched nonzeros), plus the queue's word scans. *)
let ftran_sparse t x pat n =
  (* forward: L z = b, z living at the pivot rows; steps pop ascending
     because L fill only lands on rows pivoted later *)
  for s = 0 to n - 1 do
    qpush t t.rowpos.(pat.(s))
  done;
  let wtouch = t.wtouch in
  let zn = ref 0 in
  while t.qn > 0 do
    let tt = qpop t in
    let v = x.(t.pivrow.(tt)) in
    if v <> 0.0 then begin
      wtouch.(!zn) <- tt;
      incr zn;
      for s = t.l_ptr.(tt) to t.l_ptr.(tt + 1) - 1 do
        let i = Array.unsafe_get t.l_idx s in
        qpush t t.rowpos.(i);
        Array.unsafe_set x i
          (Array.unsafe_get x i -. (Array.unsafe_get t.l_v s *. v))
      done
    end
  done;
  (* move z into step space, clearing x back to all-zero *)
  let ws = t.ws in
  for s = 0 to !zn - 1 do
    let p = t.pivrow.(wtouch.(s)) in
    ws.(wtouch.(s)) <- x.(p);
    x.(p) <- 0.0
  done;
  (* back: U y = z, descending; U fill lands on earlier steps *)
  for s = 0 to !zn - 1 do
    qpush t (mirror t wtouch.(s))
  done;
  let rn = ref 0 in
  while t.qn > 0 do
    let tt = mirror t (qpop t) in
    let v = ws.(tt) /. t.u_diag.(tt) in
    ws.(tt) <- 0.0;
    if v <> 0.0 then begin
      x.(t.colorder.(tt)) <- v;
      pat.(!rn) <- t.colorder.(tt);
      incr rn;
      for s = t.u_ptr.(tt) to t.u_ptr.(tt + 1) - 1 do
        let k2 = Array.unsafe_get t.u_idx s in
        qpush t (mirror t k2);
        Array.unsafe_set ws k2
          (Array.unsafe_get ws k2 -. (Array.unsafe_get t.u_v s *. v))
      done
    end
  done;
  (* eta file, oldest first, in position space *)
  if t.n_eta > 0 then begin
    let wmark = t.wmark in
    for s = 0 to !rn - 1 do
      Bytes.unsafe_set wmark pat.(s) '\001'
    done;
    for e = 0 to t.n_eta - 1 do
      let r = t.eta_r.(e) in
      let xr = x.(r) in
      if xr <> 0.0 then begin
        let tv = xr /. t.eta_piv.(e) in
        x.(r) <- tv;
        let ei = t.eta_idx and ev = t.eta_v in
        for s = t.eta_ptr.(e) to t.eta_ptr.(e + 1) - 1 do
          let i = Array.unsafe_get ei s in
          if Bytes.unsafe_get wmark i = '\000' then begin
            Bytes.unsafe_set wmark i '\001';
            pat.(!rn) <- i;
            incr rn
          end;
          Array.unsafe_set x i
            (Array.unsafe_get x i -. (Array.unsafe_get ev s *. tv))
        done
      end
    done;
    for s = 0 to !rn - 1 do
      Bytes.unsafe_set wmark pat.(s) '\000'
    done
  end;
  !rn

let ftran_pat t x pat n =
  if dense_cutoff t n then ftran_dense t x pat else ftran_sparse t x pat n

(* Hypersparse BTRAN: [x] holds [c] over basis positions on entry and
   the solution over rows on exit; [pat]/[n] list the input positions
   and are overwritten with the result's rows. Returns the result
   count. *)
let btran_sparse t x pat n =
  let rn = ref n in
  (* eta transposes, newest first (gather form; the file is short) *)
  if t.n_eta > 0 then begin
    let wmark = t.wmark in
    for s = 0 to n - 1 do
      Bytes.unsafe_set wmark pat.(s) '\001'
    done;
    for e = t.n_eta - 1 downto 0 do
      let r = t.eta_r.(e) in
      let acc = ref x.(r) in
      let ei = t.eta_idx and ev = t.eta_v in
      for s = t.eta_ptr.(e) to t.eta_ptr.(e + 1) - 1 do
        acc :=
          !acc
          -. (Array.unsafe_get ev s *. Array.unsafe_get x (Array.unsafe_get ei s))
      done;
      let v = !acc /. t.eta_piv.(e) in
      x.(r) <- v;
      if v <> 0.0 && Bytes.unsafe_get wmark r = '\000' then begin
        Bytes.unsafe_set wmark r '\001';
        pat.(!rn) <- r;
        incr rn
      end
    done;
    for s = 0 to !rn - 1 do
      Bytes.unsafe_set wmark pat.(s) '\000'
    done
  end;
  (* move into step space, clearing x *)
  let ws = t.ws in
  for s = 0 to !rn - 1 do
    let p = pat.(s) in
    if x.(p) <> 0.0 then begin
      let tt = t.posstep.(p) in
      ws.(tt) <- x.(p);
      x.(p) <- 0.0;
      qpush t tt
    end
  done;
  (* forward: U^T v = s, ascending, scatter via the U row adjacency *)
  let wv = t.wv and wtouch = t.wtouch in
  let zn = ref 0 in
  while t.qn > 0 do
    let tt = qpop t in
    let v = ws.(tt) /. t.u_diag.(tt) in
    ws.(tt) <- 0.0;
    if v <> 0.0 then begin
      wv.(tt) <- v;
      wtouch.(!zn) <- tt;
      incr zn;
      for s = t.ur_ptr.(tt) to t.ur_ptr.(tt + 1) - 1 do
        let k2 = Array.unsafe_get t.ur_idx s in
        qpush t k2;
        Array.unsafe_set ws k2
          (Array.unsafe_get ws k2 -. (Array.unsafe_get t.ur_v s *. v))
      done
    end
  done;
  (* back: L^T y = v, descending, scatter via the L row adjacency;
     step [tt]'s result lands on original row [pivrow tt] and feeds the
     strictly earlier steps whose L column holds that row *)
  for s = 0 to !zn - 1 do
    qpush t (mirror t wtouch.(s))
  done;
  let rn = ref 0 in
  while t.qn > 0 do
    let tt = mirror t (qpop t) in
    let v = wv.(tt) in
    wv.(tt) <- 0.0;
    if v <> 0.0 then begin
      let p = t.pivrow.(tt) in
      x.(p) <- v;
      pat.(!rn) <- p;
      incr rn;
      for s = t.lr_ptr.(p) to t.lr_ptr.(p + 1) - 1 do
        let k2 = Array.unsafe_get t.lr_idx s in
        qpush t (mirror t k2);
        Array.unsafe_set wv k2
          (Array.unsafe_get wv k2 -. (Array.unsafe_get t.lr_v s *. v))
      done
    end
  done;
  !rn

let btran_pat t x pat n =
  if dense_cutoff t n then btran_dense t x pat else btran_sparse t x pat n

(* Dense entry points: one O(m) scan builds the pattern. *)

let ftran t x = ftran_pat t x t.wpat (scan_out t x t.wpat)
let btran t x = btran_pat t x t.wpat (scan_out t x t.wpat)

(* Append the product-form eta of a basis change at position [r] with
   FTRAN'd entering column [w] ([pat]/[n]: its nonzero positions). *)
let update_pat t ~r ~w ~pat ~n =
  let piv = w.(r) in
  if Float.abs piv <= Tol.lu_singular then
    invalid_arg "Lu.update: numerically zero eta pivot";
  let e = t.n_eta in
  if Array.length t.eta_r = e then begin
    t.eta_r <- grow_int t.eta_r (e + 1);
    t.eta_piv <- grow_float t.eta_piv (e + 1);
    t.eta_ptr <- grow_int t.eta_ptr (Array.length t.eta_r + 1)
  end;
  let p0 = t.eta_nnz in
  if Array.length t.eta_idx < p0 + n then begin
    t.eta_idx <- grow_int t.eta_idx (p0 + n);
    t.eta_v <- grow_float t.eta_v (p0 + n)
  end;
  let ei = t.eta_idx and ev = t.eta_v in
  let k = ref p0 in
  for s = 0 to n - 1 do
    let i = pat.(s) in
    if i <> r && Float.abs w.(i) > Tol.pivot_drop then begin
      ei.(!k) <- i;
      ev.(!k) <- w.(i);
      incr k
    end
  done;
  t.eta_r.(e) <- r;
  t.eta_piv.(e) <- piv;
  t.eta_ptr.(e + 1) <- !k;
  t.n_eta <- e + 1;
  t.eta_nnz <- !k

let update t ~r ~w = update_pat t ~r ~w ~pat:t.wpat ~n:(scan_out t w t.wpat)
