module G = R3_net.Graph
module Routing = R3_net.Routing

let offline_worst_mlu g ~f ~base_loads ~protection =
  Virtual_demand.worst_mlu g (Links f) ~base_loads ~protection

let scenario_mlu plan links =
  let st = Reconfig.apply_failures (Reconfig.of_plan plan) links in
  Reconfig.mlu st

let max_mlu_over_scenarios plan scenarios =
  List.fold_left (fun acc s -> Float.max acc (scenario_mlu plan s)) 0.0 scenarios

(* All size-<=k subsets of [0, m), shortcut for exhaustive checking. *)
let subsets_upto m k =
  let acc = ref [] in
  let rec go start chosen remaining =
    if chosen <> [] then acc := List.rev chosen :: !acc;
    if remaining > 0 then
      for e = start to m - 1 do
        go (e + 1) (e :: chosen) (remaining - 1)
      done
  in
  go 0 [] k;
  !acc

let count_subsets m k =
  let rec binom n r =
    if r = 0 || r = n then 1.0 else binom (n - 1) (r - 1) +. binom (n - 1) r
  in
  let total = ref 0.0 in
  for i = 1 to Int.min k m do
    total := !total +. binom m i
  done;
  !total

let check_theorem1 ?(samples = 300) ?(seed = 12345) ?(tol = 1e-5) (plan : Offline.plan) =
  let g = plan.Offline.graph in
  let m = G.num_links g in
  let f = plan.Offline.f in
  if plan.Offline.mlu > 1.0 +. tol then
    Error
      (Printf.sprintf
         "theorem 1 precondition not met: offline MLU %.4f > 1 (no guarantee)"
         plan.Offline.mlu)
  else begin
    let scenarios =
      if count_subsets m f <= 5_000.0 then subsets_upto m f
      else begin
        let rng = R3_util.Prng.create seed in
        List.init samples (fun _ ->
            let k = 1 + R3_util.Prng.int rng f in
            Array.to_list
              (R3_util.Prng.sample rng k (Array.init m (fun e -> e))))
      end
    in
    let rec check = function
      | [] -> Ok ()
      | s :: rest ->
        let u = scenario_mlu plan s in
        if u > 1.0 +. tol then
          Error
            (Printf.sprintf "scenario [%s] yields MLU %.6f > 1"
               (String.concat ";" (List.map string_of_int s))
               u)
        else check rest
    in
    check scenarios
  end

let routing_distance a b =
  let acc = ref 0.0 in
  let m = Routing.num_links a in
  for k = 0 to Routing.num_commodities a - 1 do
    let ra = Routing.row_dense a k and rb = Routing.row_dense b k in
    for e = 0 to m - 1 do
      let d = Float.abs (ra.(e) -. rb.(e)) in
      if d > !acc then acc := d
    done
  done;
  !acc

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

let check_order_independence ?(tol = 1e-7) (plan : Offline.plan) links =
  match permutations links with
  | [] | [ _ ] -> Ok ()
  | reference :: rest ->
    let final order = Reconfig.apply_failures (Reconfig.of_plan plan) order in
    let ref_state = final reference in
    let rec check = function
      | [] -> Ok ()
      | order :: tl ->
        let st = final order in
        let db = routing_distance (Reconfig.base ref_state) (Reconfig.base st) in
        let dp = routing_distance ref_state.Reconfig.protection st.Reconfig.protection in
        if db > tol || dp > tol then
          Error
            (Printf.sprintf
               "order [%s] diverges: base distance %.2e, protection distance %.2e"
               (String.concat ";" (List.map string_of_int order))
               db dp)
        else check tl
    in
    check rest
