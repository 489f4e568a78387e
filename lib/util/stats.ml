(* NaN poisons order statistics silently ([Float.compare] files NaNs after
   every real value, so high percentiles quietly return NaN while low ones
   look fine); reject it loudly instead. *)
let reject_nan fname xs =
  Array.iter
    (fun x -> if Float.is_nan x then invalid_arg (fname ^ ": NaN sample"))
    xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty array";
  reject_nan "Stats.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.stddev: empty array";
  reject_nan "Stats.stddev" xs;
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (acc /. float_of_int n)
  end

let min xs =
  if Array.length xs = 0 then invalid_arg "Stats.min: empty array";
  reject_nan "Stats.min" xs;
  Array.fold_left Float.min infinity xs

let max xs =
  if Array.length xs = 0 then invalid_arg "Stats.max: empty array";
  reject_nan "Stats.max" xs;
  Array.fold_left Float.max neg_infinity xs

let binom n k =
  if k < 0 || k > n then 0.0
  else begin
    let k = Int.min k (n - k) in
    let acc = ref 1.0 in
    for i = 1 to k do
      acc := !acc *. float_of_int (n - k + i) /. float_of_int i
    done;
    !acc
  end

let sorted xs =
  let out = Array.copy xs in
  Array.sort Float.compare out;
  out

let percentile_sorted p s =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if n = 1 then s.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let lo = if lo < 0 then 0 else if lo > n - 2 then n - 2 else lo in
    let frac = rank -. float_of_int lo in
    (s.(lo) *. (1.0 -. frac)) +. (s.(lo + 1) *. frac)
  end

let percentile p xs =
  reject_nan "Stats.percentile" xs;
  percentile_sorted p (sorted xs)

let quantiles ~ps xs =
  reject_nan "Stats.quantiles" xs;
  let s = sorted xs in
  List.map (fun p -> percentile_sorted p s) ps

let median xs = percentile 50.0 xs

let histogram ~bins ~lo ~hi xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  reject_nan "Stats.histogram" xs;
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  let bucket x =
    if width <= 0.0 then 0
    else begin
      let b = int_of_float ((x -. lo) /. width) in
      if b < 0 then 0 else if b >= bins then bins - 1 else b
    end
  in
  Array.iter (fun x -> counts.(bucket x) <- counts.(bucket x) + 1) xs;
  counts
