(** Small statistics helpers used by the evaluation harness. *)

(** Arithmetic mean. Raises [Invalid_argument] on an empty array (the old
    behaviour fabricated 0.0, which silently skewed downstream summaries
    while {!min}/{!max} on the same input raised) or on any NaN sample —
    the same contract as every other aggregate here. *)
val mean : float array -> float

(** {e Population} standard deviation (divides by [n], not [n-1] — these
    summaries describe the full scenario population swept, not a sample of
    it); 0 for a single sample. Raises [Invalid_argument] on an empty
    array or on any NaN sample (NaN used to propagate silently while every
    order statistic rejected it). *)
val stddev : float array -> float

(** Smallest / largest sample. Raise [Invalid_argument] on an empty array
    (the old behaviour silently returned [infinity] / [neg_infinity]) or on
    any NaN sample (NaN would otherwise win or lose the fold depending on
    operand order and poison downstream summaries). *)
val min : float array -> float

val max : float array -> float

(** [percentile p xs] with [p] in [0,100], linear interpolation between
    order statistics. Raises [Invalid_argument] on an empty array or on any
    NaN sample (NaN sorts after every real value and would silently poison
    high percentiles). *)
val percentile : float -> float array -> float

(** [quantiles ~ps xs] evaluates {!percentile} at every point of [ps] on a
    single sorted copy of [xs] — the bulk form used by the sweep engine's
    per-algorithm summaries. Raises [Invalid_argument] on an empty array or
    on NaN samples. *)
val quantiles : ps:float list -> float array -> float list

val median : float array -> float

(** [binom n k] is C(n, k), 0 when [k < 0] or [k > n], by the
    multiplicative formula: O(k) float operations. Step [i] multiplies
    C(n-k+i-1, i-1) by [n-k+i] and then divides by [i], so the result is
    exact while [k * C(n, k)] stays below 2^53; past the float range it
    is [infinity]. *)
val binom : int -> int -> float

(** Sorted copy, ascending. *)
val sorted : float array -> float array

(** [histogram ~bins ~lo ~hi xs] counts values per equal-width bin; values
    outside [lo,hi] are clamped to the boundary bins, so the counts always
    sum to [Array.length xs]. A degenerate range ([hi <= lo], zero bin
    width) puts every sample in bucket 0. Raises [Invalid_argument] on
    [bins <= 0] or on NaN samples (they have no bucket). *)
val histogram : bins:int -> lo:float -> hi:float -> float array -> int array
