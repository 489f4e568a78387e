type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 core step: advance by the golden gamma, then mix. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = next_int64 t in
  { state = seed }

(* Keep 62 bits so the result is always a nonnegative OCaml int. *)
let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec draw () =
    let r = bits t in
    let v = r mod n in
    if r - v > max_int - n + 1 then draw () else v
  in
  draw ()

let float t x =
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int r /. 9007199254740992.0 *. x

let uniform t lo hi = lo +. float t (hi -. lo)

let gaussian t =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let exponential t ~mean =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  -.mean *. log (nonzero ())

let bool t p = float t 1.0 < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t k arr =
  let n = Array.length arr in
  if k > n then invalid_arg "Prng.sample: k exceeds array length";
  if k = n then (
    let out = Array.copy arr in
    shuffle t out;
    out)
  else begin
    let out = Array.sub arr 0 k in
    for i = k to n - 1 do
      let j = int t (i + 1) in
      if j < k then out.(j) <- arr.(i)
    done;
    out
  end

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))
