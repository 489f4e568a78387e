module P = R3_lp.Problem
module G = R3_net.Graph

type t = P.var option array array

let add lp g ~failed ~pairs =
  let n = G.num_nodes g and m = G.num_links g in
  Array.init (Array.length pairs) (fun k ->
      let a, b = pairs.(k) in
      (* [R3]: no flow back into the origin, and none on a failed link. *)
      let x =
        Array.init m (fun e ->
            if failed.(e) || G.dst g e = a then None else Some (P.var lp))
      in
      let terms coef links =
        Array.to_list links |> List.filter_map (fun e -> Option.map (fun v -> (coef, v)) x.(e))
      in
      (* [R2]: the origin emits exactly one unit. *)
      P.constr lp (terms 1.0 (G.out_links g a)) P.Eq 1.0;
      (* [R1]: conservation at every intermediate node. *)
      for v = 0 to n - 1 do
        if v <> a && v <> b then
          P.constr lp (terms 1.0 (G.out_links g v) @ terms (-1.0) (G.in_links g v)) P.Eq 0.0
      done;
      x)

let load_terms x demands e =
  let acc = ref [] in
  Array.iteri
    (fun k row ->
      match row.(e) with
      | Some v when demands.(k) > 0.0 -> acc := (demands.(k), v) :: !acc
      | Some _ | None -> ())
    x;
  !acc

let add_penalty lp weight x =
  Array.iter (Array.iter (Option.iter (P.add_objective_term lp weight))) x

let routing sol g ~pairs x =
  let t = R3_net.Routing.create g ~pairs in
  let row = Array.make (G.num_links g) 0.0 in
  Array.iteri
    (fun k vs ->
      Array.iteri
        (fun e v ->
          row.(e) <-
            (match v with
            | None -> 0.0
            | Some var ->
              (* Clamp solver noise into [0, 1]. *)
              Float.max 0.0 (Float.min 1.0 (sol.P.value var))))
        vs;
      R3_net.Routing.set_row_dense t k row)
    x;
  t

let link_pairs g = Array.init (G.num_links g) (fun e -> (G.src g e, G.dst g e))

let min_mlu g ~failed ~pairs ~demands ~background =
  let lp = P.create () in
  let mlu = P.var lp in
  let x = add lp g ~failed ~pairs in
  for e = 0 to G.num_links g - 1 do
    if not failed.(e) then
      P.constr lp ((-.G.capacity g e, mlu) :: load_terms x demands e) P.Le (-.background.(e))
  done;
  P.minimize lp [ (1.0, mlu) ];
  add_penalty lp 1e-7 x;
  match P.solve lp with
  | P.Optimal sol ->
    let value = function Some v -> sol.P.value v | None -> 0.0 in
    Ok (sol.P.value mlu, Array.map (Array.map value) x)
  | P.Infeasible -> Error "infeasible"
  | P.Unbounded -> Error "unbounded"
  | P.Iteration_limit -> Error "pivot budget exhausted"
