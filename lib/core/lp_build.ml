module P = R3_lp.Problem
module G = R3_net.Graph

type routing_vars = P.var option array array

let routing_vars lp g ~prefix ~pairs =
  let m = G.num_links g in
  Array.mapi
    (fun k (a, _) ->
      Array.init m (fun e ->
          if G.dst g e = a then None (* [R3]: no flow back into the origin *)
          else
            Some
              (P.var lp ~lb:0.0
                 (Printf.sprintf "%s%d_%d.%d" prefix k (G.src g e) (G.dst g e)))))
    pairs

let routing_constraints lp g ~pairs vars =
  let n = G.num_nodes g in
  Array.iteri
    (fun k (a, b) ->
      let row = vars.(k) in
      let term e = Option.map (fun v -> (1.0, v)) row.(e) in
      let neg_term e = Option.map (fun v -> (-1.0, v)) row.(e) in
      (* [R2]: the origin emits exactly one unit. *)
      let out_a = Array.to_list (G.out_links g a) |> List.filter_map term in
      P.constr lp ~name:(Printf.sprintf "emit_%d" k) out_a P.Eq 1.0;
      (* [R1]: conservation at every intermediate node. *)
      for v = 0 to n - 1 do
        if v <> a && v <> b then begin
          let outs = Array.to_list (G.out_links g v) |> List.filter_map term in
          let ins = Array.to_list (G.in_links g v) |> List.filter_map neg_term in
          P.constr lp ~name:(Printf.sprintf "cons_%d_%d" k v) (outs @ ins) P.Eq 0.0
        end
      done)
    pairs

let extract_routing sol g ~pairs vars =
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
    vars;
  t

let link_pairs g = Array.init (G.num_links g) (fun e -> (G.src g e, G.dst g e))

let add_loop_penalty lp penalty vars =
  if penalty > 0.0 then
    Array.iter
      (fun row ->
        Array.iter
          (function Some v -> P.add_objective_term lp penalty v | None -> ())
          row)
      vars

let penalize_self_protection lp g penalty p_vars =
  if penalty > 0.0 then begin
    let weight = penalty *. float_of_int (4 * G.num_nodes g) in
    Array.iteri
      (fun l row ->
        match row.(l) with
        | Some v -> P.add_objective_term lp weight v
        | None -> ())
      p_vars
  end

let penalize_virtual_concentration lp g weight p_vars =
  if weight > 0.0 then
    Array.iteri
      (fun l row ->
        Array.iteri
          (fun e v ->
            match v with
            | Some var ->
              P.add_objective_term lp
                (weight *. G.capacity g l /. G.capacity g e)
                var
            | None -> ())
          row)
      p_vars
