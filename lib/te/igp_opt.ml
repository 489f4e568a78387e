module G = R3_net.Graph
module Traffic = R3_net.Traffic
module Ospf = R3_net.Ospf
module Routing = R3_net.Routing

type config = { iterations : int; max_weight : int; seed : int }

let default_config = { iterations = 600; max_weight = 20; seed = 1 }

(* Fortz-Thorup piecewise-linear increasing cost Phi(load/cap). *)
let link_cost ~load ~capacity =
  let u = load /. capacity in
  let seg =
    [ (1.0 /. 3.0, 1.0); (2.0 /. 3.0, 3.0); (0.9, 10.0); (1.0, 70.0); (1.1, 500.0) ]
  in
  (* Integrate the slope pieces up to u; final slope 5000 beyond 1.1. *)
  let rec go u_prev cost = function
    | [] -> cost +. (Float.max 0.0 (u -. u_prev) *. 5000.0 *. capacity)
    | (brk, slope) :: rest ->
      if u <= brk then cost +. (Float.max 0.0 (u -. u_prev) *. slope *. capacity)
      else go brk (cost +. ((brk -. u_prev) *. slope *. capacity)) rest
  in
  go 0.0 0.0 seg

let routing_cost g ~weights tm =
  let pairs, demands = Traffic.commodities tm in
  let routing = Ospf.routing g ~weights ~pairs () in
  let loads = Routing.loads g ~demands routing in
  let acc = ref 0.0 in
  for e = 0 to G.num_links g - 1 do
    acc := !acc +. link_cost ~load:loads.(e) ~capacity:(G.capacity g e)
  done;
  !acc

let total_cost g weights tms = List.fold_left (fun a tm -> a +. routing_cost g ~weights tm) 0.0 tms

let optimize ?(config = default_config) g tms =
  let m = G.num_links g in
  let rng = R3_util.Prng.create config.seed in
  (* Start from inverse-capacity weights quantized into [1, max_weight]. *)
  let inv = Ospf.inv_cap_weights g in
  let inv_max = Array.fold_left Float.max 1.0 inv in
  let weights =
    Array.map
      (fun w ->
        let q = Float.round (w /. inv_max *. float_of_int config.max_weight) in
        Float.max 1.0 q)
      inv
  in
  let best_cost = ref (total_cost g weights tms) in
  for _ = 1 to config.iterations do
    let e = R3_util.Prng.int rng m in
    let old_w = weights.(e) in
    let new_w = float_of_int (1 + R3_util.Prng.int rng config.max_weight) in
    if new_w <> old_w then begin
      (* Symmetric change keeps forward/reverse paths aligned, which is how
         operators configure IGP metrics. *)
      let rev = G.reverse_link g e in
      let old_rev = Option.map (fun r -> weights.(r)) rev in
      weights.(e) <- new_w;
      (match rev with Some r -> weights.(r) <- new_w | None -> ());
      let cost = total_cost g weights tms in
      if cost < !best_cost -. 1e-12 then best_cost := cost
      else begin
        weights.(e) <- old_w;
        match (rev, old_rev) with
        | Some r, Some w -> weights.(r) <- w
        | _ -> ()
      end
    end
  done;
  weights
