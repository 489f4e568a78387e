type t = float array array

let zeros n = Array.init n (fun _ -> Array.make n 0.0)

let copy tm = Array.map Array.copy tm

let total tm = Array.fold_left (fun a row -> Array.fold_left ( +. ) a row) 0.0 tm

let scale tm k = Array.map (Array.map (fun x -> x *. k)) tm

let add x y =
  if Array.length x <> Array.length y then invalid_arg "Traffic.add: size mismatch";
  Array.mapi (fun i row -> Array.mapi (fun j v -> v +. y.(i).(j)) row) x

(* Standard deviation of the gravity model's per-pair lognormal noise. *)
let gravity_jitter = 0.4

let gravity rng g ~load_factor () =
  let n = Graph.num_nodes g in
  let mass = Array.make n 0.0 in
  for e = 0 to Graph.num_links g - 1 do
    mass.(Graph.src g e) <- mass.(Graph.src g e) +. Graph.capacity g e
  done;
  let mass_total = Array.fold_left ( +. ) 0.0 mass in
  let tm = zeros n in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then begin
        let noise = exp (gravity_jitter *. R3_util.Prng.gaussian rng) in
        tm.(a).(b) <- mass.(a) *. mass.(b) /. mass_total *. noise
      end
    done
  done;
  (* Scale so that total demand ~= load_factor * (bisection-ish capacity):
     we use load_factor * total capacity / average path length 3 as a
     rough, deterministic normalization; callers needing an exact MLU use
     the TE layer to rescale. *)
  let cap = Graph.total_capacity g in
  let t0 = total tm in
  if t0 <= 0.0 then tm else scale tm (load_factor *. cap /. 3.0 /. t0)

let diurnal_factor ~interval =
  let hour = interval mod 24 in
  let day = interval / 24 mod 7 in
  let h = float_of_int hour in
  (* Peak around 14:00, trough around 04:00. *)
  let daily = 0.675 +. (0.325 *. cos ((h -. 14.0) /. 24.0 *. 2.0 *. Float.pi)) in
  let weekly = if day >= 5 then 0.8 else 1.0 in
  daily *. weekly

let commodities tm =
  let n = Array.length tm in
  let pairs = ref [] and demands = ref [] in
  for a = n - 1 downto 0 do
    for b = n - 1 downto 0 do
      if a <> b && tm.(a).(b) > 0.0 then begin
        pairs := (a, b) :: !pairs;
        demands := tm.(a).(b) :: !demands
      end
    done
  done;
  (Array.of_list !pairs, Array.of_list !demands)

let split3 rng tm ~p1 ~p2 =
  if p1 < 0.0 || p2 < 0.0 || p1 +. p2 > 1.0 then invalid_arg "Traffic.split3";
  let n = Array.length tm in
  let t1 = zeros n and t2 = zeros n and t3 = zeros n in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if tm.(a).(b) > 0.0 then begin
        (* Jitter the class proportions per OD pair, keeping them in [0,1]. *)
        let j1 = Float.max 0.0 (p1 *. (0.5 +. R3_util.Prng.float rng 1.0)) in
        let j2 = Float.max 0.0 (p2 *. (0.5 +. R3_util.Prng.float rng 1.0)) in
        let j1 = Float.min j1 1.0 in
        let j2 = Float.min j2 (1.0 -. j1) in
        t1.(a).(b) <- tm.(a).(b) *. j1;
        t2.(a).(b) <- tm.(a).(b) *. j2;
        t3.(a).(b) <- tm.(a).(b) *. (1.0 -. j1 -. j2)
      end
    done
  done;
  (t1, t2, t3)
