module P = R3_lp.Problem
module G = R3_net.Graph

type t = P.var option array array

(* Every node's links in link order, each with its sign in the node's
   conservation row: +1 out of the node, -1 into it. *)
let incident g =
  let n = G.num_nodes g in
  let links = Array.make n [] in
  for e = G.num_links g - 1 downto 0 do
    links.(G.src g e) <- (e, 1.0) :: links.(G.src g e);
    links.(G.dst g e) <- (e, -1.0) :: links.(G.dst g e)
  done;
  Array.map (fun l -> Array.split (Array.of_list l)) links

(* Flow out of a node minus flow into it, over the node's [links] (from
   {!incident}, ascending) where [x] has a column. A block creates its
   columns in link order, so the variables ascend with the links and
   the row needs no sort. *)
let conservation lp x (links, signs) rhs =
  match Array.find_map (fun e -> x.(e)) links with
  | None -> P.constr_array lp [||] [||] P.Eq rhs
  | Some first ->
    let k = Array.fold_left (fun k e -> if Option.is_some x.(e) then k + 1 else k) 0 links in
    let vars = Array.make k first and coefs = Array.make k 0.0 and s = ref 0 in
    Array.iteri
      (fun t e ->
        match x.(e) with
        | Some v ->
          vars.(!s) <- v;
          coefs.(!s) <- signs.(t);
          incr s
        | None -> ())
      links;
    P.constr_array lp vars coefs P.Eq rhs

(* Link [e]'s capacity row [sum_k coefs.(k) x_k(e) - c_e MLU <= rhs],
   over the blocks [xs] with a positive coefficient and a column on [e].
   The MLU is created before the blocks, and the blocks one after the
   other, so the variables ascend and the row needs no sort. *)
let capacity lp g mlu xs coefs e rhs =
  let live k = coefs.(k) > 0.0 && Option.is_some xs.(k).(e) in
  let n = Array.length xs in
  let k = ref 1 in
  for b = 0 to n - 1 do
    if live b then incr k
  done;
  let vars = Array.make !k mlu and cs = Array.make !k (-.G.capacity g e) in
  k := 1;
  for b = 0 to n - 1 do
    if live b then begin
      vars.(!k) <- Option.get xs.(b).(e);
      cs.(!k) <- coefs.(b);
      incr k
    end
  done;
  P.constr_array lp vars cs P.Le rhs

let solved ?start lp value =
  match P.solve ?start lp with
  | P.Optimal sol -> Ok (value sol)
  | P.Infeasible -> Error "infeasible"
  | P.Unbounded -> Error "unbounded"
  | P.Iteration_limit -> Error "pivot budget exhausted"

let add lp g ~failed ~pairs =
  let n = G.num_nodes g and m = G.num_links g in
  let inc = incident g in
  Array.init (Array.length pairs) (fun k ->
      let a, b = pairs.(k) in
      (* [R3]: no flow back into the origin, and none on a failed link. *)
      let x =
        Array.init m (fun e ->
            if failed.(e) || G.dst g e = a then None else Some (P.var lp))
      in
      (* [R2]: the origin emits exactly one unit (no column enters it). *)
      conservation lp x inc.(a) 1.0;
      (* [R1]: conservation at every intermediate node. *)
      for v = 0 to n - 1 do
        if v <> a && v <> b then conservation lp x inc.(v) 0.0
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

module Obs = struct
  let reroute_solves = R3_util.Metrics.counter "mcf.reroute_solves"
  let dest_solves = R3_util.Metrics.counter "mcf.dest_solves"
end

(* The surviving link with the largest [load / capacity], the first on
   ties: the capacity row the MLU starts basic in. -1 when none
   survives. *)
let busiest g ~failed load =
  let util e = load.(e) /. G.capacity g e in
  let worst = ref (-1) in
  Array.iteri
    (fun e down -> if (not down) && (!worst < 0 || util e > util !worst) then worst := e)
    failed;
  !worst

let min_mlu g ~failed ~pairs ~demands ~background =
  R3_util.Metrics.incr Obs.reroute_solves;
  R3_util.Trace.with_span "mcf.reroute_solve"
    ~attrs:[ ("commodities", R3_util.Trace.Int (Array.length pairs)) ]
  @@ fun () ->
  let n = G.num_nodes g and m = G.num_links g in
  let lp = P.create () in
  let mlu = P.var lp in
  let x = add lp g ~failed ~pairs in
  (* Start: each commodity's hop-count in-tree toward [b] over the links
     it has columns on. [a]'s tree arc is basic in the emit row, every
     other node's in its conservation row (rows in [add]'s order); a
     node that cannot reach [b] keeps its artificial, at right-hand side
     0. The unit rides the [a]-[b] tree path, every other tree arc
     carries 0. *)
  let start = ref [] and load = Array.copy background and row = ref 0 in
  let hops = R3_net.Ospf.unit_weights g in
  Array.iteri
    (fun k (a, b) ->
      let _, parent =
        R3_net.Spf.in_tree g
          ~failed:(Array.init m (fun e -> failed.(e) || G.dst g e = a))
          ~weights:hops ~dst:b
      in
      let next v =
        if parent.(v) >= 0 then start := (!row, Option.get x.(k).(parent.(v))) :: !start;
        incr row
      in
      next a;
      for v = 0 to n - 1 do
        if v <> a && v <> b then next v
      done;
      let v = ref a in
      while parent.(!v) >= 0 do
        let e = parent.(!v) in
        load.(e) <- load.(e) +. demands.(k);
        v := G.dst g e
      done)
    pairs;
  (* The MLU starts basic in the row of the link the start loads most,
     every other capacity row on its slack or surplus: the start is
     triangular and primal feasible. *)
  let worst = busiest g ~failed load in
  for e = 0 to m - 1 do
    if not failed.(e) then begin
      if e = worst then start := (P.num_constraints lp, mlu) :: !start;
      capacity lp g mlu x demands e (-.background.(e))
    end
  done;
  P.minimize lp [ (1.0, mlu) ];
  add_penalty lp 1e-7 x;
  solved ~start:!start lp (fun sol ->
      let value = function Some v -> sol.P.value v | None -> 0.0 in
      (sol.P.value mlu, Array.map (Array.map value) x))

(* ---- the per-destination shape ---- *)

let min_mlu_dest g ~failed ~pairs ~demands =
  R3_util.Metrics.incr Obs.dest_solves;
  R3_util.Trace.with_span "mcf.dest_solve" @@ fun () ->
  let n = G.num_nodes g and m = G.num_links g in
  let hops = R3_net.Ospf.unit_weights g in
  let trees = Array.init n (fun t -> R3_net.Spf.in_tree g ~failed ~weights:hops ~dst:t) in
  let inc = incident g in
  let reaches t v = (snd trees.(t)).(v) >= 0 in
  (* dem.(t).(v) = D(v, t), summed over the pairs that still connect. *)
  let dem = Array.make_matrix n n 0.0 in
  Array.iteri
    (fun k (a, b) ->
      if demands.(k) > 0.0 && reaches b a then dem.(b).(a) <- dem.(b).(a) +. demands.(k))
    pairs;
  let dests = List.filter (fun t -> Array.exists (fun d -> d > 0.0) dem.(t)) (List.init n Fun.id) in
  R3_util.Trace.add_attr "destinations" (R3_util.Trace.Int (List.length dests));
  if dests = [] then Ok 0.0
  else begin
    let lp = P.create () in
    let mlu = P.var lp in
    let start = ref [] in
    let load = Array.make m 0.0 in
    let blocks =
      List.map
        (fun t ->
          let dist, parent = trees.(t) in
          (* No flow out of [t], and none on a failed link. *)
          let x =
            Array.init m (fun e -> if failed.(e) || G.src g e = t then None else Some (P.var lp))
          in
          (* Conservation at every v <> t. The tree arc starts basic in
             its node's row; a node that cannot reach [t] keeps its
             artificial, at right-hand side 0. *)
          for v = 0 to n - 1 do
            if v <> t then begin
              if parent.(v) >= 0 then
                start := (P.num_constraints lp, Option.get x.(parent.(v))) :: !start;
              conservation lp x inc.(v) dem.(t).(v)
            end
          done;
          (* Each tree arc carries its subtree's demand, deepest node first. *)
          let sub = Array.copy dem.(t) in
          List.init n Fun.id
          |> List.filter (reaches t)
          |> List.stable_sort (fun u v -> Float.compare dist.(v) dist.(u))
          |> List.iter (fun v ->
                 let e = parent.(v) in
                 load.(e) <- load.(e) +. sub.(v);
                 sub.(G.dst g e) <- sub.(G.dst g e) +. sub.(v));
          x)
        dests
      |> Array.of_list
    in
    (* The MLU starts basic in the row of the link the trees load most,
       every other capacity row on its slack: the start is triangular
       and primal feasible. *)
    let worst = busiest g ~failed load in
    let ones = Array.make (Array.length blocks) 1.0 in
    for e = 0 to m - 1 do
      if not failed.(e) then begin
        if e = worst then start := (P.num_constraints lp, mlu) :: !start;
        capacity lp g mlu blocks ones e 0.0
      end
    done;
    P.minimize lp [ (1.0, mlu) ];
    solved ~start:!start lp (fun sol -> sol.P.value mlu)
  end
