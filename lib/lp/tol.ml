(* Single home for every numeric tolerance in the LP stack (they used to
   be scattered magic literals). The revised engine and its LU
   factorization read from here; the textbook reference tableau reads
   only [eps], [feas] and [purge], its Bland rule needing no other
   threshold. A root-dune grep guard forbids new bare negative-exponent
   float literals anywhere else under lib/lp/. *)

(* Reduced-cost / pivot-element significance: entries smaller than this
   are treated as zero by pricing and the ratio test. *)
let eps = 1e-9

(* Phase-1 objective above this value means primal infeasible. *)
let feas = 1e-7

(* LU: entries at or below this are not stored in the factors or the
   eta file. *)
let pivot_drop = 1e-13

(* Basic values in (-rhs_snap, 0) are numerical drift; snap them to 0. *)
let rhs_snap = 1e-11

(* Harris two-pass ratio test: pass 2 accepts rows whose ratio is within
   [theta + harris_rel * (1 + theta)] of the pass-1 minimum. *)
let harris_rel = 1e-7

(* A pivot with ratio below this counts as degenerate (anti-cycling
   bookkeeping feeds the Bland fallback). *)
let degenerate_ratio = 1e-10

(* Reset the Devex reference framework when weights exceed this. *)
let devex_reset = 1e10

(* Minimum |coefficient| on which a basic artificial may be pivoted out. *)
let purge = 1e-7

(* Dual simplex: a basic value below [-dual_feas] needs repair; ratio
   ties within [dual_ratio_tie] break toward the larger pivot element. *)
let dual_feas = 1e-9

let dual_ratio_tie = 1e-12

(* LU factorization: a column whose remaining entries are all at or
   below [lu_singular] is rank deficient, and the simplex repairs the
   basis by swapping it for a slack or artificial; an eta pivot this
   small forces a refactorization instead of an update. *)
let lu_singular = 1e-11

(* Threshold partial pivoting: rows within [lu_threshold * amax] of the
   largest eligible magnitude compete on (Markowitz) sparsity instead of
   pure magnitude. *)
let lu_threshold = 0.1

(* An FTRAN'd pivot element below this (with a nonempty eta file)
   triggers refactorization before the pivot is trusted. *)
let lu_unstable = 1e-7

(* Eta-file length between refactorizations. *)
let refactor_every = 128
