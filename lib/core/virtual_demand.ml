module G = R3_net.Graph
module P = R3_lp.Problem

type groups = {
  srlgs : G.link list list;
  mlgs : G.link list list;
  k : int;
}

type envelope = Links of int | Groups of groups

let budget = function Links f -> f | Groups groups -> groups.k

let member g ~f x =
  let m = G.num_links g in
  if Array.length x <> m then invalid_arg "Virtual_demand.member: bad length";
  let budget = ref 0.0 in
  let ok = ref true in
  for e = 0 to m - 1 do
    let u = x.(e) /. G.capacity g e in
    if u < -1e-9 || u > 1.0 +. 1e-9 then ok := false;
    budget := !budget +. u
  done;
  !ok && !budget <= float_of_int f +. 1e-9

let extreme_points ?(limit = 200_000) g ~f =
  let m = G.num_links g in
  (* Count subsets of size <= f before materializing. *)
  let count = ref 0.0 in
  for k = 0 to Int.min f m do
    count := !count +. R3_util.Stats.binom m k
  done;
  if !count > float_of_int limit then
    invalid_arg
      (Printf.sprintf "Virtual_demand.extreme_points: %.0f points exceeds limit %d" !count limit);
  let acc = ref [] in
  let x = Array.make m 0.0 in
  let rec enumerate start remaining =
    acc := Array.copy x :: !acc;
    if remaining > 0 then
      for e = start to m - 1 do
        x.(e) <- G.capacity g e;
        enumerate (e + 1) (remaining - 1);
        x.(e) <- 0.0
      done
  in
  enumerate 0 f;
  !acc

let weight_columns g p =
  let m = G.num_links g in
  let cols = Array.init m (fun _ -> Array.make m 0.0) in
  for l = 0 to m - 1 do
    let c = G.capacity g l in
    R3_net.Routing.iter_row p l (fun e x -> cols.(e).(l) <- c *. x)
  done;
  cols

let worst_virtual_load ~f weights =
  let sorted = Array.copy weights in
  Array.sort (fun a b -> Float.compare b a) sorted;
  let acc = ref 0.0 in
  for i = 0 to Int.min f (Array.length sorted) - 1 do
    if sorted.(i) > 0.0 then acc := !acc +. sorted.(i)
  done;
  !acc

let worst_virtual_load_set ~f weights =
  let idx = Array.init (Array.length weights) (fun i -> i) in
  Array.sort (fun a b -> Float.compare weights.(b) weights.(a)) idx;
  let acc = ref 0.0 and links = ref [] in
  for i = 0 to Int.min f (Array.length weights) - 1 do
    if weights.(idx.(i)) > 0.0 then begin
      acc := !acc +. weights.(idx.(i));
      links := idx.(i) :: !links
    end
  done;
  (!acc, List.rev !links)

(* ---- the structured oracle of (18) ---- *)

(* Disjoint SRLGs and no MLGs make (18) a unit-weight knapsack over
   groups (the constraint matrix is an interval matrix, so the LP
   relaxation is integral). *)
let disjoint_srlgs_only groups m =
  groups.mlgs = []
  &&
  let seen = Array.make m false in
  List.for_all
    (List.for_all (fun l ->
         if l < 0 || l >= m || seen.(l) then false
         else begin
           seen.(l) <- true;
           true
         end))
    groups.srlgs

(* Take the k groups with the largest total weight (a stable sort, so
   ties go to the earlier group). *)
let worst_disjoint groups weights =
  let values =
    List.map
      (fun grp -> (List.fold_left (fun a l -> a +. weights.(l)) 0.0 grp, grp))
      groups.srlgs
    |> List.sort (fun (a, _) (b, _) -> Float.compare b a)
  in
  let total = ref 0.0 and support = ref [] in
  List.iteri
    (fun i (v, grp) ->
      if i < groups.k && v > 0.0 then begin
        total := !total +. v;
        List.iter (fun l -> support := (l, 1.0) :: !support) grp
      end)
    values;
  (!total, List.sort (fun (a, _) (b, _) -> Int.compare a b) !support)

(* Links covered by at least one group; only they can carry virtual
   demand under (18). *)
let covered_links groups m =
  let covered = Array.make m false in
  List.iter (List.iter (fun l -> covered.(l) <- true)) groups.srlgs;
  List.iter (List.iter (fun l -> covered.(l) <- true)) groups.mlgs;
  covered

let worst_group_lp groups weights =
  let m = Array.length weights in
  let covered = covered_links groups m in
  let lp = P.create () in
  let y =
    Array.init m (fun l ->
        if covered.(l) && weights.(l) > 0.0 then Some (P.var lp) else None)
  in
  let group_vars gs = List.map (fun _ -> P.var lp) gs in
  let srlg_vars = group_vars groups.srlgs in
  let mlg_vars = group_vars groups.mlgs in
  if srlg_vars <> [] then
    P.constr lp (List.map (fun v -> (1.0, v)) srlg_vars) P.Le (float_of_int groups.k);
  if mlg_vars <> [] then
    P.constr lp (List.map (fun v -> (1.0, v)) mlg_vars) P.Le 1.0;
  (* y_l <= sum of I_f over groups containing l *)
  Array.iteri
    (fun l yv ->
      match yv with
      | None -> ()
      | Some yv ->
        let cover =
          List.concat
            [
              List.filteri (fun i _ -> List.mem l (List.nth groups.srlgs i)) srlg_vars;
              List.filteri (fun i _ -> List.mem l (List.nth groups.mlgs i)) mlg_vars;
            ]
        in
        P.constr lp
          ((1.0, yv) :: List.map (fun v -> (-1.0, v)) cover)
          P.Le 0.0)
    y;
  (* y_l <= 1 *)
  Array.iter (Option.iter (fun yv -> P.constr lp [ (1.0, yv) ] P.Le 1.0)) y;
  let obj =
    Array.to_list y
    |> List.mapi (fun l yv -> Option.map (fun v -> (weights.(l), v)) yv)
    |> List.filter_map Fun.id
  in
  P.maximize lp obj;
  match P.solve lp with
  | P.Optimal sol ->
    let support = ref [] in
    for l = m - 1 downto 0 do
      match y.(l) with
      | Some v ->
        let yl = sol.P.value v in
        if yl <> 0.0 then support := (l, yl) :: !support
      | None -> ()
    done;
    (sol.P.objective, !support)
  | P.Infeasible | P.Unbounded | P.Iteration_limit ->
    (* The oracle polytope is a nonempty bounded box-like region; failure
       here indicates a solver bug, so fail loudly. *)
    failwith "structured oracle LP failed"

let worst_load env weights =
  match env with
  | Links f ->
    let value, set = worst_virtual_load_set ~f weights in
    (value, List.sort Int.compare set |> List.map (fun l -> (l, 1.0)))
  | Groups groups ->
    if disjoint_srlgs_only groups (Array.length weights) then worst_disjoint groups weights
    else worst_group_lp groups weights

let worst_group_load groups weights =
  let value, support = worst_load (Groups groups) weights in
  let y = Array.make (Array.length weights) 0.0 in
  List.iter (fun (l, yl) -> y.(l) <- yl) support;
  (value, y)

(* ---- audit ---- *)

let worst_mlu g env ~base_loads ~protection =
  let m = G.num_links g in
  let weights = weight_columns g protection in
  let utils =
    R3_util.Parallel.init m (fun e ->
        let value =
          match env with
          | Links f -> worst_virtual_load ~f weights.(e)
          | Groups _ -> fst (worst_load env weights.(e))
        in
        (base_loads.(e) +. value) /. G.capacity g e)
  in
  Array.fold_left Float.max 0.0 utils
