type cmp = Le | Ge | Eq

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit

type outcome = {
  status : status;
  x : float array;
  objective : float;
  pivots : int;
}

let eps = Tol.eps
let feas_tol = Tol.feas

type phase_end = Phase_optimal | Phase_unbounded | Phase_limit

let default_budget m n = Int.max 100_000 (40 * (m + n))

(* ---- observability ----
   Per-solve numerical-behaviour counters. The pivot loops bump plain
   mutable ints on the solver state (free next to a pivot's O(nnz) work);
   the totals flush into the sharded process-wide Metrics registry once
   per (re-)solve, so the hot loops never touch an atomic. *)
module Obs = struct
  module M = R3_util.Metrics

  let solves = M.counter "lp.solves"
  let pivots = M.counter "lp.pivots"
  let degenerate = M.counter "lp.degenerate_pivots"
  let harris_rejections = M.counter "lp.harris_rejections"
  let devex_resets = M.counter "lp.devex_resets"
  let phase1_pivots = M.counter "lp.phase1_pivots"
  let phase2_pivots = M.counter "lp.phase2_pivots"
  let dual_pivots = M.counter "lp.dual_pivots"
  let resolves = M.counter "lp.resolves"
  let rev_refactors = M.counter "lp.rev.refactorizations"
  let rev_eta_entries = M.counter "lp.rev.eta_entries"
  let rev_ftran_nnz = M.counter "lp.rev.ftran_nnz"
  let rev_btran_nnz = M.counter "lp.rev.btran_nnz"
  let rev_cand_hits = M.counter "lp.rev.candidate_hits"
  let rev_cand_refreshes = M.counter "lp.rev.candidate_refreshes"

  (* Basis positions repaired: rank-deficient LU columns swapped for the
     unit column of an unpivoted row (see [Rev.refactor_lu]). The name
     predates the repair, from when such a basis fell back to a second
     engine; the bench's [lp.fallbacks] metric reads it. *)
  let rev_fallbacks = M.counter "lp.rev.fallbacks"

  (* One finished solve, given how far the solver's counters
     ({!Rev.tally}) grew across it: a two-phase solve, whose first
     [split] pivots were phase 1, or a warm re-solve ([warm]), whose
     first [split] pivots were dual. *)
  let record ~warm ~split d =
    M.incr (if warm then resolves else solves);
    M.add pivots d.(0);
    M.add (if warm then dual_pivots else phase1_pivots) split;
    M.add phase2_pivots (d.(0) - split);
    List.iteri
      (fun k c -> M.add c d.(k + 1))
      [ degenerate; harris_rejections; devex_resets; rev_refactors; rev_eta_entries;
        rev_ftran_nnz; rev_btran_nnz; rev_cand_hits; rev_cand_refreshes ]
end

(* ---- shared preprocessing ----
   Equilibrate the constraint matrix, then normalize every row: scale by
   max |coeff| and flip sign so rhs >= 0.

   Column scaling matters on the R3 dualized LPs: capacities (1e2..1e4),
   demands and unit routing coefficients coexist in one matrix, and an
   unequilibrated tableau forces pivots on relatively tiny elements whose
   huge ratios wreck primal feasibility of the excluded rows. Each column
   is scaled by 1/sqrt(max.min) of its nonzero magnitudes (geometric
   equilibration); the caller multiplies objective coefficients by
   [col_scale] and recovers [x_j = y_j * col_scale.(j)]. The given rows
   are read, never written: {!Problem} keeps them for later solves. *)

module R = R3_util.Rowvec

(* [sign] times [row] with each column's scale applied, times [k scale]
   for its largest magnitude [scale] (1 if empty): a fresh row without
   the entries that scale to exactly 0, with two spare slots for the
   logicals {!Rev} appends, and [k scale]. *)
let equilibrate col_scale ~sign row k =
  let idx = R.indices row and v = R.values row and n = R.nnz row in
  let ri = Array.make (n + 2) 0 and rv = Array.make (n + 2) 0.0 in
  let scale = ref 0.0 in
  for t = 0 to n - 1 do
    ri.(t) <- idx.(t);
    rv.(t) <- sign *. v.(t) *. col_scale.(idx.(t));
    scale := Float.max !scale (Float.abs rv.(t))
  done;
  let k = k (if !scale > 0.0 then !scale else 1.0) in
  let row = R.of_sorted ri rv n in
  R.scale row k;
  (row, k)

(* Returns the scaled rows, the (possibly flipped) comparators, the
   scaled rhs, the slack and artificial counts and the column scales. *)
let prepare ~n ~rows ~cmps ~rhs =
  let m = Array.length rows in
  if Array.length cmps <> m || Array.length rhs <> m then
    invalid_arg "Simplex: rows/cmps/rhs length mismatch";
  let col_max = Array.make n 0.0 and col_min = Array.make n infinity in
  Array.iter
    (R.iter (fun j c ->
         let a = Float.abs c in
         if a > 0.0 then begin
           if a > col_max.(j) then col_max.(j) <- a;
           if a < col_min.(j) then col_min.(j) <- a
         end))
    rows;
  let col_scale =
    Array.init n (fun j ->
        if col_max.(j) > 0.0 then 1.0 /. sqrt (col_max.(j) *. col_min.(j))
        else 1.0)
  in
  let cmps = Array.copy cmps in
  let b0 = Array.copy rhs in
  let scaled_rows =
    Array.mapi
      (fun i row ->
        let row, k =
          equilibrate col_scale ~sign:1.0 row (fun scale ->
              if b0.(i) /. scale < 0.0 then -1.0 /. scale else 1.0 /. scale)
        in
        b0.(i) <- b0.(i) *. k;
        if k < 0.0 (* flipped *) then
          cmps.(i) <- (match cmps.(i) with Le -> Ge | Ge -> Le | Eq -> Eq);
        row)
      rows
  in
  (* Every inequality row has a slack or surplus, and a row needs an
     artificial unless its (+1) slack can start basic. *)
  let count p = Array.fold_left (fun a c -> if p c then a + 1 else a) 0 cmps in
  (scaled_rows, cmps, b0, count (fun c -> c <> Eq), count (fun c -> c <> Le), col_scale)

(* ==================================================================== *)
(* Reference engine: a textbook dense two-phase tableau under Bland's
   rule, reachable only through {!reference_solve} as the independent
   oracle tests compare the revised engine against. It shares only
   {!prepare}'s equilibration with {!Rev}: no pricing heuristic, no
   ratio-test window and no metric.                                     *)
(* ==================================================================== *)

module Reference = struct
  (* [tab.(i)] is row i over the [width] columns (structural, then slack
     or surplus, then artificial) with its right-hand side in entry
     [width]; a cost row holds the reduced costs with minus the objective
     in entry [width]. [basis.(i)] is row i's basic column, or -1 once
     the row is dropped as redundant. *)
  type state = {
    tab : float array array;
    basis : int array;
    width : int;
    mutable pivots : int;
  }

  (* Pivot on (row [ip], column [jp]): scale the row to a unit pivot,
     then eliminate the column from every other live row and from each
     of [costs]. *)
  let pivot st costs ip jp =
    let prow = st.tab.(ip) in
    let piv = prow.(jp) in
    Array.iteri (fun j a -> prow.(j) <- a /. piv) prow;
    let eliminate row =
      let f = row.(jp) in
      if f <> 0.0 then Array.iteri (fun j a -> row.(j) <- row.(j) -. (f *. a)) prow
    in
    Array.iteri (fun i row -> if i <> ip && st.basis.(i) >= 0 then eliminate row) st.tab;
    List.iter eliminate costs;
    st.basis.(ip) <- jp;
    st.pivots <- st.pivots + 1

  (* Bland's rule. Entering: the lowest-index column below [limit] whose
     reduced cost is below [-eps]. Leaving: the minimum ratio over the
     rows with an entry above [eps] in that column, and among the rows
     at exactly that ratio, the one whose basic column has the lowest
     index. A basic value that drifted below 0 counts as 0. *)
  let run_phase st costs ~limit ~max_pivots =
    let cost = List.hd costs in
    let rec entering j =
      if j >= limit then None else if cost.(j) < -.eps then Some j else entering (j + 1)
    in
    let leaving jp =
      let best = ref (-1) and best_ratio = ref infinity in
      Array.iteri
        (fun i row ->
          if st.basis.(i) >= 0 && row.(jp) > eps then begin
            let ratio = Float.max row.(st.width) 0.0 /. row.(jp) in
            if ratio < !best_ratio || (ratio = !best_ratio && st.basis.(i) < st.basis.(!best))
            then begin
              best := i;
              best_ratio := ratio
            end
          end)
        st.tab;
      !best
    in
    let rec loop () =
      if st.pivots >= max_pivots then Phase_limit
      else
        match entering 0 with
        | None -> Phase_optimal
        | Some jp ->
          let ip = leaving jp in
          if ip < 0 then Phase_unbounded
          else begin
            pivot st costs ip jp;
            loop ()
          end
    in
    loop ()

  let solve ?max_pivots ~obj ~rows ~cmps ~rhs () =
    let n = Array.length obj and m = Array.length rows in
    let rows, cmps, b, n_slack, n_art, col_scale = prepare ~n ~rows ~cmps ~rhs in
    let art_lo = n + n_slack in
    let width = art_lo + n_art in
    let tab = Array.init m (fun _ -> Array.make (width + 1) 0.0) in
    let st = { tab; basis = Array.make m (-1); width; pivots = 0 } in
    (* Phase 1 minimizes the sum of the artificials: its cost row is
       [-(sum of the rows that start on an artificial)] outside the
       artificial columns. Phase 2's row rides along. *)
    let cost1 = Array.make (width + 1) 0.0 and cost2 = Array.make (width + 1) 0.0 in
    Array.iteri (fun j c -> cost2.(j) <- c *. col_scale.(j)) obj;
    let slack = ref n and art = ref art_lo in
    Array.iteri
      (fun i row ->
        R.iter (fun j c -> row.(j) <- c) rows.(i);
        row.(width) <- b.(i);
        if cmps.(i) <> Eq then begin
          row.(!slack) <- (if cmps.(i) = Le then 1.0 else -1.0);
          st.basis.(i) <- !slack;
          incr slack
        end;
        if cmps.(i) <> Le then begin
          row.(!art) <- 1.0;
          st.basis.(i) <- !art;
          incr art;
          Array.iteri (fun j a -> if j < art_lo || j = width then cost1.(j) <- cost1.(j) -. a) row
        end)
      st.tab;
    let max_pivots = Option.value max_pivots ~default:(default_budget m n) in
    let fail status = { status; x = Array.make n 0.0; objective = 0.0; pivots = st.pivots } in
    match run_phase st [ cost1; cost2 ] ~limit:width ~max_pivots with
    | Phase_limit -> fail Iteration_limit
    | Phase_unbounded -> fail Infeasible (* the sum of artificials is bounded below by 0 *)
    | Phase_optimal when -.cost1.(width) > feas_tol -> fail Infeasible
    | Phase_optimal -> (
      (* A basic artificial left at 0 leaves on the first real column of
         its row; a row with none is redundant and is dropped. *)
      Array.iteri
        (fun i row ->
          if st.basis.(i) >= art_lo then begin
            let rec real j =
              if j >= art_lo then st.basis.(i) <- -1
              else if Float.abs row.(j) > Tol.purge then pivot st [ cost2 ] i j
              else real (j + 1)
            in
            real 0
          end)
        st.tab;
      match run_phase st [ cost2 ] ~limit:art_lo ~max_pivots with
      | Phase_limit -> fail Iteration_limit
      | Phase_unbounded -> fail Unbounded
      | Phase_optimal ->
        let x = Array.make n 0.0 in
        Array.iteri
          (fun i j -> if j >= 0 && j < n then x.(j) <- tab.(i).(width) *. col_scale.(j))
          st.basis;
        let objective = ref 0.0 in
        Array.iteri (fun j c -> objective := !objective +. (c *. x.(j))) obj;
        { status = Optimal; x; objective = !objective; pivots = st.pivots })
end

(* ==================================================================== *)
(* The revised simplex engine: the basis is held as a sparse LU
   factorization (see {!Lu}) instead of an explicitly pivoted tableau.
   Each iteration costs one BTRAN (pivot row), one FTRAN (entering
   column) and an eta append, all O(touched nonzeros) - per-pivot work
   does not scale with the total column count. Pricing is Devex over a
   cached candidate list; the Harris ratio test runs on the FTRAN
   result. The same state is a warm-startable session: appended rows
   keep the factorization, and [resolve] repairs primal feasibility
   with dual-simplex pivots through the carried-over LU. A numerically
   singular basis is repaired in place (see {!refactor_lu}).           *)
(* ==================================================================== *)

module Rev = struct
  module T = R3_util.Trace

  (* Entering candidates retained by one pricing refresh. *)
  let cand_cap = 64

  type state = {
    n_struct : int;
    art_lo : int;  (* artificial columns occupy [art_lo, art_hi) *)
    art_hi : int;
    mutable repair_arts : int list;  (* artificials added by basis repair *)
    budget : int;  (* pivot budget per (re-)solve *)
    obj : float array;
    col_scale : float array;
    lu : Lu.t;
    mutable m : int;
    mutable width : int;
    mutable cols : R.t array;  (* per column: row entries, first [width] used *)
    mutable arows : R.t array;  (* per row: all column entries (static) *)
    mutable b0 : float array;  (* scaled rhs *)
    mutable basis : int array;  (* basis position -> column *)
    mutable pos_of : int array;  (* column -> basis position, or -1 *)
    mutable logical : int array;  (* row -> its +1 unit column *)
    surplus : int array;  (* built row -> its -1 surplus column, or -1 *)
    mutable barred : int list;  (* displaced by a repair, see [run_phase] *)
    mutable xb : float array;  (* basic values by position *)
    (* Rows that may hold [xb < -Tol.dual_feas]: every such row is listed
       (once, flagged in [infeas_mark]); rows that recovered leave the
       list lazily, when the dual loop next reads it. Rebuilt by
       [compute_xb], extended by [commit]. *)
    mutable infeas : int array;
    mutable infeas_mark : Bytes.t;
    mutable infeas_n : int;
    mutable dj : float array;  (* reduced costs of the current phase *)
    mutable cost2 : float array;  (* scaled phase-2 objective per column *)
    mutable devex : float array;
    (* Solve workspaces, length >= m. Invariant: zero outside the first
       [w_n]/[rho_n] entries of their pattern arrays — producers clear
       the previous support and hand the new one to the pattern-aware LU
       solves, consumers iterate the support, so per-pivot work tracks
       the nonzeros actually touched rather than [m]. *)
    mutable w : float array;  (* FTRAN workspace *)
    mutable w_pat : int array;
    mutable w_n : int;
    mutable rho : float array;  (* BTRAN workspace *)
    mutable rho_pat : int array;
    mutable rho_n : int;
    mutable alpha : float array;  (* pivot-row workspace, length >= width *)
    mutable alpha_mark : Bytes.t;
    mutable alpha_sup : int array;  (* pivot-row support: nonbasic columns *)
    mutable alpha_n : int;
    cand : int array;  (* pricing candidate list *)
    mutable cand_n : int;
    mutable in_phase1 : bool;
    mutable pivots : int;
    mutable degenerate_run : int;
    mutable degen : int;
    mutable harris_rej : int;
    mutable devex_resets : int;
    mutable refactors : int;  (* with the five below: Obs accumulators *)
    mutable eta_app : int;
    mutable ftran_nnz : int;
    mutable btran_nnz : int;
    mutable cand_hits : int;
    mutable cand_refreshes : int;
    mutable valid : bool;  (* last solve ended [Optimal]: warm restart ok *)
  }

  let is_artificial st j =
    (j >= st.art_lo && j < st.art_hi)
    || (st.repair_arts <> [] && List.mem j st.repair_arts)

  let clear_alpha st =
    for s = 0 to st.alpha_n - 1 do
      let j = st.alpha_sup.(s) in
      st.alpha.(j) <- 0.0;
      Bytes.unsafe_set st.alpha_mark j '\000'
    done;
    st.alpha_n <- 0

  (* [a]'s first [n] entries at the front of [cap] fresh ones, the rest
     [fill]. *)
  let grow a n cap fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b

  let grow_cols st extra =
    let need = st.width + extra and w = st.width in
    if Array.length st.dj < need then begin
      (* The mark bytes and alpha values are dirty from the last
         [pivot_row]; they are cleared lazily through [alpha_sup], so
         flush them while the support still matches before replacing it
         with a fresh (empty) one. *)
      clear_alpha st;
      let cap = Int.max need (2 * Array.length st.dj) in
      st.dj <- grow st.dj w cap 0.0;
      st.cost2 <- grow st.cost2 w cap 0.0;
      st.devex <- grow st.devex w cap 1.0;
      st.alpha <- grow st.alpha w cap 0.0;
      let mk = Bytes.make cap '\000' in
      Bytes.blit st.alpha_mark 0 mk 0 w;
      st.alpha_mark <- mk;
      st.alpha_sup <- Array.make cap 0;
      st.pos_of <- grow st.pos_of w cap (-1);
      let cols = Array.init cap (fun _ -> R.create ~cap:4 ()) in
      Array.blit st.cols 0 cols 0 w;
      st.cols <- cols
    end

  let grow_rows st extra =
    let need = st.m + extra and m = st.m in
    if Array.length st.b0 < need then begin
      let cap = Int.max need (2 * Array.length st.b0) in
      st.b0 <- grow st.b0 m cap 0.0;
      st.xb <- grow st.xb m cap 0.0;
      st.infeas <- grow st.infeas st.infeas_n cap 0;
      let mk = Bytes.make cap '\000' in
      Bytes.blit st.infeas_mark 0 mk 0 m;
      st.infeas_mark <- mk;
      (* fresh all-zero workspaces: the empty pattern is correct *)
      st.w <- Array.make cap 0.0;
      st.rho <- Array.make cap 0.0;
      st.w_pat <- Array.make cap 0;
      st.rho_pat <- Array.make cap 0;
      st.w_n <- 0;
      st.rho_n <- 0;
      st.basis <- grow st.basis m cap (-1);
      st.logical <- grow st.logical m cap (-1);
      let arows = Array.init cap (fun _ -> R.create ~cap:1 ()) in
      Array.blit st.arows 0 arows 0 m;
      st.arows <- arows
    end

  (* Raised by a refactorization that had to repair the basis: the basic
     solution changed under the running loop, so the caller that catches
     it restores a feasible start ({!restore_feasibility}) and reruns the
     phases. *)
  exception Repaired

  (* Factor the basis. Each position the LU reports rank deficient takes
     the +1 unit column (slack or artificial) of the unpivoted row it is
     paired with - the returned factors already describe that repaired
     basis - and the displaced column turns nonbasic at its bound 0,
     barred from re-entering until the phase's optimum. The standard
     LU-code remedy for a numerically singular basis; every swap counts
     on [lp.rev.fallbacks]. Raises {!Repaired} after one. *)
  let refactor_lu st =
    let deficient =
      T.with_span "lp.rev.refactor" ~attrs:[ ("rows", T.Int st.m) ] @@ fun () ->
      let d = Lu.refactor st.lu ~m:st.m ~cols:st.cols ~basis:st.basis in
      T.add_attr "repaired" (T.Int (List.length d));
      d
    in
    st.refactors <- st.refactors + 1;
    if deficient <> [] then begin
      List.iter
        (fun (k, r) ->
          let j = st.logical.(r) in
          st.barred <- st.basis.(k) :: st.barred;
          st.pos_of.(st.basis.(k)) <- -1;
          st.basis.(k) <- j;
          st.pos_of.(j) <- k)
        deficient;
      R3_util.Metrics.add Obs.rev_fallbacks (List.length deficient);
      raise Repaired
    end

  (* Pattern-aware solves: callers stage the right-hand side's support
     in [w_pat]/[rho_pat]; the LU solve leaves the result's support
     there. *)
  let ftran st =
    st.w_n <- Lu.ftran_pat st.lu st.w st.w_pat st.w_n;
    st.ftran_nnz <- st.ftran_nnz + st.w_n

  let btran st =
    st.rho_n <- Lu.btran_pat st.lu st.rho st.rho_pat st.rho_n;
    st.btran_nnz <- st.btran_nnz + st.rho_n

  (* Seed rho := e_ip (clearing the previous support) and BTRAN. *)
  let btran_unit st ip =
    for s = 0 to st.rho_n - 1 do
      st.rho.(st.rho_pat.(s)) <- 0.0
    done;
    st.rho.(ip) <- 1.0;
    st.rho_pat.(0) <- ip;
    st.rho_n <- 1;
    btran st

  (* Load column [jq] into the workspace and solve B w = A_jq. *)
  let ftran_col st jq =
    for s = 0 to st.w_n - 1 do
      st.w.(st.w_pat.(s)) <- 0.0
    done;
    let col = st.cols.(jq) in
    let idx = R.indices col and v = R.values col and n = R.nnz col in
    for s = 0 to n - 1 do
      st.w.(idx.(s)) <- v.(s);
      st.w_pat.(s) <- idx.(s)
    done;
    st.w_n <- n;
    ftran st

  let compute_xb st =
    (* dense rhs: the blit wipes the previous support, so rescan *)
    Array.blit st.b0 0 st.w 0 st.m;
    let n = ref 0 in
    for i = 0 to st.m - 1 do
      if st.w.(i) <> 0.0 then begin
        st.w_pat.(!n) <- i;
        incr n
      end
    done;
    st.w_n <- !n;
    ftran st;
    let n = ref 0 in
    for i = 0 to st.m - 1 do
      let v = st.w.(i) in
      let v = if v < 0.0 && v > -.Tol.rhs_snap then 0.0 else v in
      st.xb.(i) <- v;
      if v < -.Tol.dual_feas then begin
        st.infeas.(!n) <- i;
        incr n;
        Bytes.unsafe_set st.infeas_mark i '\001'
      end
      else Bytes.unsafe_set st.infeas_mark i '\000'
    done;
    st.infeas_n <- !n

  (* Reprice everything from scratch: y = B^-T c_B, then
     d_j = c_j - y . A_j over stored column nonzeros (O(nnz A)). The
     phase cost (1 on artificials in phase 1, [cost2] in phase 2) and
     the dot product are inlined over hoisted arrays: a per-column call
     would box its float result. *)
  let price st =
    let phase1 = st.in_phase1 and cost2 = st.cost2 in
    let basis = st.basis and rho = st.rho and rho_pat = st.rho_pat in
    (* dense basic-cost vector overwrites the previous support *)
    let n = ref 0 in
    for i = 0 to st.m - 1 do
      let j = basis.(i) in
      let c =
        if phase1 then if is_artificial st j then 1.0 else 0.0 else cost2.(j)
      in
      rho.(i) <- c;
      if c <> 0.0 then begin
        rho_pat.(!n) <- i;
        incr n
      end
    done;
    st.rho_n <- !n;
    btran st;
    let rho = st.rho and dj = st.dj and pos_of = st.pos_of and cols = st.cols in
    for j = 0 to st.width - 1 do
      if pos_of.(j) >= 0 then dj.(j) <- 0.0
      else begin
        let col = cols.(j) in
        let idx = R.indices col and v = R.values col in
        let acc = ref 0.0 in
        for s = 0 to R.nnz col - 1 do
          acc :=
            !acc
            +. (Array.unsafe_get v s *. Array.unsafe_get rho (Array.unsafe_get idx s))
        done;
        let c =
          if phase1 then if is_artificial st j then 1.0 else 0.0 else cost2.(j)
        in
        dj.(j) <- c -. !acc
      end
    done

  (* Refactorize and rebuild xb and dj from scratch; also the recovery
     path after an unstable pivot. Raises {!Repaired}. *)
  let refresh st =
    refactor_lu st;
    compute_xb st;
    price st;
    st.cand_n <- 0

  (* Warm-resolve variant: appended rows extend the basis
     block-triangularly ([[B 0] [C I]], new slacks basic), so the old
     duals are unchanged and the new slacks price to zero — the carried
     reduced costs are already exact and the O(width) reprice can be
     skipped. Only the factorization and the primal values must be
     rebuilt at the grown dimension. *)
  let refresh_keep_dj st =
    refactor_lu st;
    compute_xb st;
    st.cand_n <- 0

  (* rho := B^-T e_ip, then alpha := rho^T A gathered over the rows rho
     touches, for nonbasic columns only: every consumer reads nonbasic
     entries alone. [alpha_sup] records the support in first-touch
     order, which skipping basic columns leaves unchanged for the rest
     (the dual ratio test's tie rule reads that order). *)
  let pivot_row st ip =
    clear_alpha st;
    btran_unit st ip;
    let rho = st.rho and rho_pat = st.rho_pat and arows = st.arows in
    let pos_of = st.pos_of and alpha = st.alpha in
    let mark = st.alpha_mark and sup = st.alpha_sup in
    let n = ref 0 in
    for s = 0 to st.rho_n - 1 do
      let i = rho_pat.(s) in
      let ri = Array.unsafe_get rho i in
      if ri <> 0.0 then begin
        let row = arows.(i) in
        let idx = R.indices row and v = R.values row in
        for e = 0 to R.nnz row - 1 do
          let j = Array.unsafe_get idx e in
          if Array.unsafe_get pos_of j < 0 then begin
            let a = ri *. Array.unsafe_get v e in
            if Bytes.unsafe_get mark j = '\000' then begin
              Bytes.unsafe_set mark j '\001';
              Array.unsafe_set sup !n j;
              incr n;
              Array.unsafe_set alpha j a
            end
            else Array.unsafe_set alpha j (Array.unsafe_get alpha j +. a)
          end
        done
      end
    done;
    st.alpha_n <- !n

  (* Reduced-cost and Devex updates for a primal pivot: entering [jq]
     replaces basis position [ip]. Needs the FTRAN'd entering column
     still in [w]. The pivot row [alpha] is gathered over the rows the
     hypersparse BTRAN actually touched — O(support * row nnz), not
     O(nnz A) — so every nonbasic reduced cost stays exact and
     {!entering}'s optimality verdict needs no reprice. *)
  let update_primal st ip jq =
    let jl = st.basis.(ip) in
    let aq = st.w.(ip) in
    let t = st.dj.(jq) /. aq in
    let wq = Float.max st.devex.(jq) 1.0 in
    pivot_row st ip;
    for s = 0 to st.alpha_n - 1 do
      let j = Array.unsafe_get st.alpha_sup s in
      if j <> jq then begin
        let a = Array.unsafe_get st.alpha j in
        if a <> 0.0 then begin
          Array.unsafe_set st.dj j (Array.unsafe_get st.dj j -. (t *. a));
          let r = a /. aq in
          let c = r *. r *. wq in
          if c > Array.unsafe_get st.devex j then
            Array.unsafe_set st.devex j c
        end
      end
    done;
    st.dj.(jl) <- -.t;
    st.dj.(jq) <- 0.0;
    st.devex.(jl) <- Float.max (wq /. (aq *. aq)) 1.0;
    if st.devex.(jl) > Tol.devex_reset || wq > Tol.devex_reset then begin
      Array.fill st.devex 0 st.width 1.0;
      st.devex_resets <- st.devex_resets + 1
    end

  let note_infeasible st i =
    if Bytes.unsafe_get st.infeas_mark i = '\000' then begin
      Bytes.unsafe_set st.infeas_mark i '\001';
      st.infeas.(st.infeas_n) <- i;
      st.infeas_n <- st.infeas_n + 1
    end

  (* Commit the basis change: step the basic values along the FTRAN'd
     column (the rows it touches and [ip] are the only ones that can
     turn infeasible), append the eta, swap the basis bookkeeping. An
     eta pivot too small to record means the new basis is numerically
     singular: refactor it instead, which repairs it. *)
  let commit st ip jq theta =
    for s = 0 to st.w_n - 1 do
      let i = Array.unsafe_get st.w_pat s in
      if i <> ip then begin
        let wi = Array.unsafe_get st.w i in
        if wi <> 0.0 then begin
          let v = Array.unsafe_get st.xb i -. (theta *. wi) in
          let v = if v < 0.0 && v > -.Tol.rhs_snap then 0.0 else v in
          Array.unsafe_set st.xb i v;
          if v < -.Tol.dual_feas then note_infeasible st i
        end
      end
    done;
    st.xb.(ip) <- theta;
    if theta < -.Tol.dual_feas then note_infeasible st ip;
    let jl = st.basis.(ip) in
    st.basis.(ip) <- jq;
    st.pos_of.(jq) <- ip;
    st.pos_of.(jl) <- -1;
    st.pivots <- st.pivots + 1;
    if Float.abs st.w.(ip) > Tol.lu_singular then begin
      let e0 = Lu.eta_entries st.lu in
      Lu.update_pat st.lu ~r:ip ~w:st.w ~pat:st.w_pat ~n:st.w_n;
      st.eta_app <- st.eta_app + (Lu.eta_entries st.lu - e0)
    end
    else refresh st

  (* Artificials never (re-)enter: once nonbasic they are fixed at 0. *)
  let eligible st j =
    st.dj.(j) < -.eps
    && st.pos_of.(j) < 0
    && (not (is_artificial st j))
    && (st.barred = [] || not (List.mem j st.barred))

  let score st j =
    let d = st.dj.(j) in
    d *. d /. st.devex.(j)

  (* Full pricing scan retaining the [cand_cap] best Devex scores, with
     {!eligible} and {!score} inlined over hoisted arrays. Once the list
     is full, a column replaces the worst entry when it scores higher,
     and the worst is then found again. *)
  let refresh_cands st =
    st.cand_refreshes <- st.cand_refreshes + 1;
    let dj = st.dj and devex = st.devex and pos_of = st.pos_of in
    let cand = st.cand and barred = st.barred in
    let n = ref 0 and worst = ref 0 and worst_s = ref infinity in
    for j = 0 to st.width - 1 do
      let d = Array.unsafe_get dj j in
      if
        d < -.eps
        && Array.unsafe_get pos_of j < 0
        && (not (is_artificial st j))
        && (barred = [] || not (List.mem j barred))
      then begin
        let changed =
          if !n < cand_cap then begin
            cand.(!n) <- j;
            incr n;
            !n = cand_cap
          end
          else if d *. d /. Array.unsafe_get devex j > !worst_s then begin
            cand.(!worst) <- j;
            true
          end
          else false
        in
        if changed then begin
          worst_s := infinity;
          for s = 0 to cand_cap - 1 do
            let c = cand.(s) in
            let dc = dj.(c) in
            let v = dc *. dc /. devex.(c) in
            if v < !worst_s then begin
              worst := s;
              worst_s := v
            end
          done
        end
      end
    done;
    st.cand_n <- !n

  (* Entering column: best current Devex score among the cached
     candidates (compacting out entries that went basic or lost
     eligibility); a full rescan only when the list runs dry. Bland's
     lowest-index rule takes over on long degenerate runs. *)
  let entering st =
    if st.degenerate_run > 100 then begin
      let rec first j =
        if j >= st.width then None
        else if eligible st j then Some j
        else first (j + 1)
      in
      first 0
    end
    else begin
      let pick () =
        let best = ref (-1) and best_score = ref 0.0 in
        let w = ref 0 in
        for s = 0 to st.cand_n - 1 do
          let j = st.cand.(s) in
          if eligible st j then begin
            st.cand.(!w) <- j;
            incr w;
            let v = score st j in
            if v > !best_score then begin
              best := j;
              best_score := v
            end
          end
        done;
        st.cand_n <- !w;
        !best
      in
      let b = pick () in
      if b >= 0 then begin
        st.cand_hits <- st.cand_hits + 1;
        Some b
      end
      else begin
        (* Candidate list ran dry: rescan (reduced costs are exact). *)
        refresh_cands st;
        let b = pick () in
        if b >= 0 then Some b else None
      end
    end

  (* Harris two-pass ratio test on the FTRAN'd column. Pass 1 finds the
     tightest ratio; pass 2 picks, among rows whose ratio is within a
     *relative* tolerance of it, the one with the largest pivot element
     (smallest basis index on exact ties). An absolute tie window is
     useless here: at ratios of 1e6 it degenerates to "first minimum",
     which happily pivots on near-[eps] elements and wrecks the basis.
     Negative basic values (numerical drift) count as zero, so their
     rows surface as degenerate ratio-0 pivots that restore feasibility
     instead of producing negative ratios. One extra rule: a row holding
     a basic artificial at (numerical) zero whose coefficient is negative
     is eligible at ratio 0 - the exchange drives the artificial out
     nonbasic instead of letting its value grow. *)
  let leaving st =
    let art_kick st i a =
      a < -.eps && st.xb.(i) <= feas_tol && is_artificial st st.basis.(i)
    in
    let theta = ref infinity in
    for s = 0 to st.w_n - 1 do
      let i = Array.unsafe_get st.w_pat s in
      let a = Array.unsafe_get st.w i in
      if a > eps then begin
        let ratio = Float.max st.xb.(i) 0.0 /. a in
        if ratio < !theta then theta := ratio
      end
      else if art_kick st i a then theta := 0.0
    done;
    if !theta = infinity then None
    else begin
      let lim = !theta +. (Tol.harris_rel *. (1.0 +. !theta)) in
      let best = ref (-1) and best_piv = ref 0.0 in
      for s = 0 to st.w_n - 1 do
        let i = Array.unsafe_get st.w_pat s in
        let a = Array.unsafe_get st.w i in
        let mag, ratio =
          if a > eps then (a, Float.max st.xb.(i) 0.0 /. a)
          else if art_kick st i a then (-.a, 0.0)
          else (0.0, infinity)
        in
        if mag > 0.0 then
          if ratio <= lim then begin
            if
              mag > !best_piv
              || (mag = !best_piv && !best >= 0
                 && st.basis.(i) < st.basis.(!best))
            then begin
              best := i;
              best_piv := mag
            end
          end
          else st.harris_rej <- st.harris_rej + 1
      done;
      let i = !best in
      let ratio =
        if st.w.(i) > 0.0 then Float.max st.xb.(i) 0.0 /. st.w.(i) else 0.0
      in
      Some (i, ratio)
    end

  (* [~certify] is a drift guard for callers that reach this loop with
     incrementally-maintained reduced costs (the warm-resolve cleanup,
     whose dual sweep refactorizes without repricing): a claimed optimum
     is only trusted after one fresh O(nnz A) reprice confirms no
     candidate reappears. The cold path repricess at every phase start
     and eta-threshold refactorization, so it skips the check. *)
  let run_phase st ~max_pivots ?(certify = false) () =
    let rec loop certified =
      if st.pivots >= max_pivots then Phase_limit
      else begin
        match entering st with
        | None when st.barred <> [] ->
          (* Optimal without the columns a basis repair displaced: let
             them compete again before claiming the optimum. Barring
             them until here keeps the next pivot from re-entering the
             column the repair just removed. *)
          st.barred <- [];
          price st;
          st.cand_n <- 0;
          loop true
        | None ->
          if certified then Phase_optimal
          else begin
            price st;
            st.cand_n <- 0;
            loop true
          end
        | Some jq -> begin
            ftran_col st jq;
            match leaving st with
            | None -> Phase_unbounded
            | Some (ip, ratio) ->
              if
                Float.abs st.w.(ip) < Tol.lu_unstable
                && Lu.eta_count st.lu > 0
              then begin
                (* Pivot too small to trust through the eta file:
                   refactorize and retry the iteration. *)
                refresh st;
                loop false
              end
              else begin
                if ratio < Tol.degenerate_ratio then begin
                  st.degenerate_run <- st.degenerate_run + 1;
                  st.degen <- st.degen + 1
                end
                else st.degenerate_run <- 0;
                if st.xb.(ip) < 0.0 then st.xb.(ip) <- 0.0;
                update_primal st ip jq;
                commit st ip jq ratio;
                (* Full refresh, not [refresh_keep_dj]: resealing dj
                   drift here keeps Devex honest on long degenerate
                   runs — skipping the reprice inflates the dualized
                   LP's pivot count by ~30%. *)
                if Lu.needs_refactor st.lu then refresh st;
                loop false
              end
          end
      end
    in
    loop (not certify)

  (* Phase-1 residual: total value still sitting on basic artificials. *)
  let art_residual st =
    let s = ref 0.0 in
    for i = 0 to st.m - 1 do
      if is_artificial st st.basis.(i) then s := !s +. Float.max st.xb.(i) 0.0
    done;
    !s

  (* Pivot basic-at-zero artificials out on any usable real column (a
     degenerate ratio-0 exchange). A row with no usable entry is
     redundant: its artificial stays basic at zero and, because the
     pivot row is zero over real columns, never interferes again. *)
  let purge_artificials st =
    for ip = 0 to st.m - 1 do
      if is_artificial st st.basis.(ip) then begin
        pivot_row st ip;
        let jq = ref (-1) in
        for s = 0 to st.alpha_n - 1 do
          let j = st.alpha_sup.(s) in
          if
            (not (is_artificial st j))
            && Float.abs st.alpha.(j) > Tol.purge
            && (!jq < 0 || j < !jq)
          then jq := j
        done;
        if !jq >= 0 then begin
          ftran_col st !jq;
          if Float.abs st.w.(ip) > Tol.lu_singular then begin
            st.xb.(ip) <- 0.0;
            commit st ip !jq 0.0;
            if Lu.needs_refactor st.lu then refresh st
          end
        end
      end
    done

  let build ?max_pivots ~obj ~rows ~cmps ~rhs () =
    let n = Array.length obj in
    let m = Array.length rows in
    T.with_span "lp.rev.build" ~attrs:[ ("rows", T.Int m) ] @@ fun () ->
    let scaled_rows, cmps, b0, n_slack, n_art, col_scale =
      prepare ~n ~rows ~cmps ~rhs
    in
    let width = n + n_slack + n_art in
    let cap_w = Int.max width 1 and cap_m = Int.max m 1 in
    let st =
      {
        n_struct = n;
        art_lo = n + n_slack;
        art_hi = width;
        repair_arts = [];
        budget = (match max_pivots with Some k -> k | None -> default_budget m n);
        obj = Array.copy obj;
        col_scale;
        lu = Lu.create ();
        m;
        width;
        cols = [||];
        arows = (if m > 0 then scaled_rows else [| R.create ~cap:1 () |]);
        b0 = grow b0 m cap_m 0.0;
        basis = Array.make cap_m (-1);
        pos_of = Array.make cap_w (-1);
        logical = Array.make cap_m (-1);
        surplus = Array.make m (-1);
        barred = [];
        xb = Array.make cap_m 0.0;
        infeas = Array.make cap_m 0;
        infeas_mark = Bytes.make cap_m '\000';
        infeas_n = 0;
        dj = Array.make cap_w 0.0;
        cost2 = Array.make cap_w 0.0;
        devex = Array.make cap_w 1.0;
        w = Array.make cap_m 0.0;
        w_pat = Array.make cap_m 0;
        w_n = 0;
        rho = Array.make cap_m 0.0;
        rho_pat = Array.make cap_m 0;
        rho_n = 0;
        alpha = Array.make cap_w 0.0;
        alpha_mark = Bytes.make cap_w '\000';
        alpha_sup = Array.make cap_w 0;
        alpha_n = 0;
        cand = Array.make cand_cap 0;
        cand_n = 0;
        in_phase1 = n_art > 0;
        pivots = 0;
        degenerate_run = 0;
        degen = 0;
        harris_rej = 0;
        devex_resets = 0;
        refactors = 0;
        eta_app = 0;
        ftran_nnz = 0;
        btran_nnz = 0;
        cand_hits = 0;
        cand_refreshes = 0;
        valid = false;
      }
    in
    for j = 0 to n - 1 do
      st.cost2.(j) <- obj.(j) *. col_scale.(j)
    done;
    let next_slack = ref n and next_art = ref (n + n_slack) in
    for i = 0 to m - 1 do
      (* The scaled row joins the row store with its logicals. *)
      let arow = scaled_rows.(i) in
      (match cmps.(i) with
      | Le ->
        R.set arow !next_slack 1.0;
        st.basis.(i) <- !next_slack;
        st.pos_of.(!next_slack) <- i;
        st.logical.(i) <- !next_slack;
        incr next_slack
      | Ge ->
        R.set arow !next_slack (-1.0);
        st.surplus.(i) <- !next_slack;
        incr next_slack
      | Eq -> ());
      if cmps.(i) <> Le then begin
        R.set arow !next_art 1.0;
        st.basis.(i) <- !next_art;
        st.pos_of.(!next_art) <- i;
        st.logical.(i) <- !next_art;
        incr next_art
      end
    done;
    (* The column store, by a counting transpose of those rows into flat
       arrays ([start.(j)] is column [j]'s offset): exact-size columns,
       entries in row order, each logical a singleton. *)
    let start = Array.make (cap_w + 1) 0 in
    Array.iter
      (fun row ->
        let idx = R.indices row in
        for t = 0 to R.nnz row - 1 do
          start.(idx.(t) + 1) <- start.(idx.(t) + 1) + 1
        done)
      scaled_rows;
    for j = 1 to cap_w do
      start.(j) <- start.(j) + start.(j - 1)
    done;
    let nnz = start.(cap_w) and next = Array.sub start 0 cap_w in
    let ri = Array.make nnz 0 and rv = Array.make nnz 0.0 in
    Array.iteri
      (fun i row ->
        let idx = R.indices row and v = R.values row in
        for t = 0 to R.nnz row - 1 do
          let p = next.(idx.(t)) in
          next.(idx.(t)) <- p + 1;
          ri.(p) <- i;
          rv.(p) <- v.(t)
        done)
      scaled_rows;
    st.cols <-
      Array.init cap_w (fun j ->
          let len = start.(j + 1) - start.(j) in
          R.of_sorted (Array.sub ri start.(j) len) (Array.sub rv start.(j) len) len);
    T.add_attr "cols" (T.Int width);
    T.add_attr "nnz" (T.Int nnz);
    st

  let fail st status =
    { status; x = Array.make st.n_struct 0.0; objective = 0.0; pivots = st.pivots }

  let extract st =
    let n = st.n_struct in
    let x = Array.make n 0.0 in
    for i = 0 to st.m - 1 do
      let j = st.basis.(i) in
      if j < n then x.(j) <- st.xb.(i) *. st.col_scale.(j)
    done;
    let objective = ref 0.0 in
    Array.iteri (fun j c -> objective := !objective +. (c *. x.(j))) st.obj;
    { status = Optimal; x; objective = !objective; pivots = st.pivots }

  (* After a repair the displaced columns sit at 0, so the basic values
     may have gone negative, and the logicals swapped in may hold an
     artificial above 0. Rebuild a phase-1 start from the repaired basis:
     negative rows [u] are lifted by one pivot on a fresh artificial
     column [-B u] (it enters on the most negative row, raising every
     marked value by the same step), and phase 1 resumes whenever an
     artificial is above zero. *)
  let restore_feasibility st =
    compute_xb st;
    let neg = ref [] and p = ref (-1) in
    for i = 0 to st.m - 1 do
      if st.xb.(i) < -.feas_tol then begin
        neg := i :: !neg;
        if !p < 0 || st.xb.(i) < st.xb.(!p) then p := i
      end
    done;
    if !p >= 0 then begin
      let a = Array.make st.m 0.0 in
      List.iter
        (fun i -> R.iter (fun r v -> a.(r) <- a.(r) -. v) st.cols.(st.basis.(i)))
        !neg;
      grow_cols st 1;
      let j = st.width in
      st.width <- j + 1;
      let col = R.of_dense a in
      st.cols.(j) <- col;
      R.iter (fun r v -> R.set st.arows.(r) j v) col;
      st.cost2.(j) <- 0.0;
      st.devex.(j) <- 1.0;
      st.repair_arts <- j :: st.repair_arts;
      ftran_col st j;
      commit st !p j (-.st.xb.(!p))
    end;
    if art_residual st > feas_tol then st.in_phase1 <- true;
    st.degenerate_run <- 0;
    st.cand_n <- 0;
    price st

  (* Phase 1 (while [in_phase1]) then phase 2, from the current basis;
     [p1] receives the pivot count at the end of phase 1. *)
  let phases st ~max_pivots ~p1 =
    let phase1 =
      if not st.in_phase1 then Phase_optimal else run_phase st ~max_pivots ()
    in
    p1 := st.pivots;
    match phase1 with
    | Phase_limit -> fail st Iteration_limit
    | Phase_unbounded -> fail st Infeasible
    | Phase_optimal ->
      if st.in_phase1 && art_residual st > feas_tol then fail st Infeasible
      else begin
        st.in_phase1 <- false;
        purge_artificials st;
        st.degenerate_run <- 0;
        st.cand_n <- 0;
        price st;
        match run_phase st ~max_pivots () with
        | Phase_limit -> fail st Iteration_limit
        | Phase_unbounded -> fail st Unbounded
        | Phase_optimal ->
          st.valid <- true;
          extract st
      end

  (* Resume after a basis repair: restore a feasible start and rerun the
     phases, as often as repairs recur. A repair needs a pivot since the
     previous refactorization, so the pivot budget bounds the recursion. *)
  let rec after_repair st ~max_pivots ~p1 =
    if st.pivots >= max_pivots then fail st Iteration_limit
    else
      match restore_feasibility st with
      | exception Repaired -> after_repair st ~max_pivots ~p1
      | () -> (
        match phases st ~max_pivots ~p1 with
        | out -> out
        | exception Repaired -> after_repair st ~max_pivots ~p1)

  (* The counters {!Obs.record} flushes, in its order. *)
  let tally st =
    [| st.pivots; st.degen; st.harris_rej; st.devex_resets; st.refactors; st.eta_app;
       st.ftran_nnz; st.btran_nnz; st.cand_hits; st.cand_refreshes |]

  let record st ~warm ~split t0 =
    Obs.record ~warm ~split (Array.map2 ( - ) (tally st) t0)

  (* Each (row, structural column) pair of a start basis replaces that
     row's logical (slack or artificial) in the basis. A >= row the
     start does not list begins on its surplus instead of its
     artificial: a unit column either way, so the basis stays as
     triangular as the start, and only equality rows keep an artificial.
     A negative surplus is lifted like any negative basic value. *)
  let set_start st start =
    let enter i j =
      st.pos_of.(st.basis.(i)) <- -1;
      st.basis.(i) <- j;
      st.pos_of.(j) <- i
    in
    List.iter
      (fun (i, j) ->
        if i < 0 || i >= st.m || j < 0 || j >= st.n_struct then
          invalid_arg "Simplex: start basis entry out of range";
        if st.pos_of.(j) >= 0 || st.basis.(i) <> st.logical.(i) then
          invalid_arg "Simplex: start basis repeats a row or a column";
        enter i j)
      start;
    Array.iteri
      (fun i s -> if s >= 0 && st.basis.(i) = st.logical.(i) then enter i s)
      st.surplus

  let first_solve ?start st =
    T.with_span "lp.rev.solve"
      ~attrs:[ ("rows", T.Int st.m); ("cols", T.Int st.width) ]
    @@ fun () ->
    let max_pivots = st.budget in
    let t0 = tally st in
    let p1 = ref 0 in
    let finish out =
      record st ~warm:false ~split:!p1 t0;
      T.add_attr "pivots" (T.Int st.pivots);
      T.add_attr "refactorizations" (T.Int st.refactors);
      out
    in
    match start with
    | None ->
      (* Initial basis is slacks + artificials: B = I, trivially factored. *)
      refresh st;
      finish
        (match phases st ~max_pivots ~p1 with
        | out -> out
        | exception Repaired -> after_repair st ~max_pivots ~p1)
    | Some start ->
      (* A given basis, completed by the surplus of every uncovered >=
         row, goes through the repair path: the factorization swaps
         rank-deficient positions for their row's logical, negative rows
         are lifted by one composite artificial, and phase 1 runs only
         when an artificial is above 0. *)
      set_start st start;
      st.in_phase1 <- false;
      (try refactor_lu st with Repaired -> ());
      finish (after_repair st ~max_pivots ~p1)

  (* Append [sign * row <= sign * rhs], scaled as {!prepare} scales an
     unflipped row, with a fresh basic slack. Nothing is eliminated
     against the basis: the revised method works off original rows, so
     appending is O(nnz row). The factorization is stale afterwards;
     {!resolve} refactorizes first. *)
  let append_le st row ~sign rhs =
    let arow, k = equilibrate st.col_scale ~sign row (fun scale -> 1.0 /. scale) in
    grow_cols st 1;
    grow_rows st 1;
    let s = st.width and i = st.m in
    st.width <- st.width + 1;
    st.m <- st.m + 1;
    R.iter (fun j v -> R.set st.cols.(j) i v) arow;
    R.set arow s 1.0;
    st.arows.(i) <- arow;
    st.cols.(s) <- R.of_sorted [| i |] [| 1.0 |] 1;
    st.cost2.(s) <- 0.0;
    st.dj.(s) <- 0.0;
    st.devex.(s) <- 1.0;
    st.b0.(i) <- sign *. rhs *. k;
    st.basis.(i) <- s;
    st.pos_of.(s) <- i;
    st.logical.(i) <- s;
    st.xb.(i) <- 0.0

  (* An [Eq] row is a [Le] row and a [Ge] row, in that order. *)
  let add_row st row cmp rhs =
    if cmp <> Ge then append_le st row ~sign:1.0 rhs;
    if cmp <> Le then append_le st row ~sign:(-1.0) rhs

  (* Warm re-solve after appended rows: refactorize (the dimension
     changed) and reprice - the previous optimum keeps every reduced
     cost >= 0, so the state is dual feasible - then repair primal
     feasibility with dual-simplex pivots through the carried-over
     factorization and finish with a primal cleanup phase. *)
  let resolve st =
    T.with_span "lp.rev.resolve"
      ~attrs:[ ("rows", T.Int st.m); ("cols", T.Int st.width) ]
    @@ fun () ->
    let t0 = tally st in
    let dual = ref 0 in
    let finish out =
      record st ~warm:true ~split:!dual t0;
      out
    in
    if not st.valid then finish (fail st Iteration_limit)
    else begin
      st.valid <- false;
      st.in_phase1 <- false;
      st.degenerate_run <- 0;
      let limit = st.pivots + st.budget in
      let out =
        try
          refresh_keep_dj st;
          let rec dual_loop () =
            if st.pivots >= limit then Phase_limit
            else begin
              (* Leaving row: the most infeasible, lowest row first on
                 ties, which is the first minimum of an ascending scan.
                 Rows still holding a basic artificial are redundant
                 (see {!purge_artificials}): their value is zero up to
                 drift and their pivot row has no usable entry, so
                 selecting one would misreport dual unboundedness. *)
              let ip = ref (-1) and bmin = ref 0.0 and live = ref 0 in
              for s = 0 to st.infeas_n - 1 do
                let i = st.infeas.(s) in
                let x = st.xb.(i) in
                if x < -.Tol.dual_feas then begin
                  st.infeas.(!live) <- i;
                  incr live;
                  if
                    (!ip < 0 || x < !bmin || (x = !bmin && i < !ip))
                    && not (is_artificial st st.basis.(i))
                  then begin
                    ip := i;
                    bmin := x
                  end
                end
                else Bytes.unsafe_set st.infeas_mark i '\000'
              done;
              st.infeas_n <- !live;
              if !ip < 0 then Phase_optimal
              else begin
                let ip = !ip in
                pivot_row st ip;
                let jq = ref (-1) and best = ref infinity and best_a = ref 0.0 in
                for s = 0 to st.alpha_n - 1 do
                  let j = st.alpha_sup.(s) in
                  let a = st.alpha.(j) in
                  if a < -.eps && not (is_artificial st j) then begin
                    let ratio = st.dj.(j) /. -.a in
                    if
                      ratio < !best -. Tol.dual_ratio_tie
                      || (ratio < !best +. Tol.dual_ratio_tie
                         && Float.abs a > Float.abs !best_a)
                    then begin
                      jq := j;
                      best := ratio;
                      best_a := a
                    end
                  end
                done;
                if !jq < 0 then
                  Phase_unbounded (* dual unbounded = primal infeasible *)
                else begin
                  let jq = !jq in
                  ftran_col st jq;
                  let aq = st.w.(ip) in
                  if Float.abs aq < Tol.lu_unstable && Lu.eta_count st.lu > 0
                  then begin
                    refresh st;
                    dual_loop ()
                  end
                  else if aq >= -.eps then
                    (* FTRAN disagrees with the BTRAN'd row even on a
                       fresh factorization: give up on the warm state. *)
                    Phase_limit
                  else begin
                    let t = st.dj.(jq) /. -.aq in
                    let jl = st.basis.(ip) in
                    for s = 0 to st.alpha_n - 1 do
                      let j = st.alpha_sup.(s) in
                      if j <> jq then
                        st.dj.(j) <- st.dj.(j) +. (t *. st.alpha.(j))
                    done;
                    st.dj.(jl) <- t;
                    st.dj.(jq) <- 0.0;
                    let theta = st.xb.(ip) /. aq in
                    if theta < Tol.degenerate_ratio then begin
                      st.degenerate_run <- st.degenerate_run + 1;
                      st.degen <- st.degen + 1
                    end
                    else st.degenerate_run <- 0;
                    commit st ip jq theta;
                    if Lu.needs_refactor st.lu then refresh_keep_dj st;
                    dual_loop ()
                  end
                end
              end
            end
          in
          let out = dual_loop () in
          dual := st.pivots - t0.(0);
          match out with
          | Phase_limit -> fail st Iteration_limit
          | Phase_unbounded -> fail st Infeasible
          | Phase_optimal -> (
            (* Primal cleanup: repair residual negative reduced costs. *)
            st.cand_n <- 0;
            match
              run_phase st ~max_pivots:(st.pivots + st.budget) ~certify:true ()
            with
            | Phase_limit -> fail st Iteration_limit
            | Phase_unbounded -> fail st Unbounded
            | Phase_optimal ->
              st.valid <- true;
              extract st)
        with Repaired ->
          (* The repair may have cost the dual feasibility the dual loop
             relies on: finish with the primal phases instead. *)
          after_repair st ~max_pivots:(st.pivots + st.budget) ~p1:(ref 0)
      in
      finish out
    end
end

let solve ?max_pivots ?start ~obj ~rows ~cmps ~rhs () =
  Rev.first_solve ?start (Rev.build ?max_pivots ~obj ~rows ~cmps ~rhs ())

let reference_solve = Reference.solve

module Session = struct
  type t = { st : Rev.state; mutable last : outcome }

  let create ?max_pivots ~obj ~rows ~cmps ~rhs () =
    let st = Rev.build ?max_pivots ~obj ~rows ~cmps ~rhs () in
    { st; last = Rev.first_solve st }

  let outcome s = s.last
  let add_row s row cmp rhs = Rev.add_row s.st row cmp rhs

  let resolve s =
    let o = Rev.resolve s.st in
    s.last <- o;
    o

  let pivots s = s.st.Rev.pivots
  let warm_ok s = s.st.Rev.valid
  let refactorizations s = s.st.Rev.refactors
end
