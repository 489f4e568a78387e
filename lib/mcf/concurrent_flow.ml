module G = R3_net.Graph

type result = { mlu : float; iterations : int }

(* Dijkstra under current lengths, returning predecessor links toward each
   node from [src]. O(n^2), adequate for backbone-scale graphs. *)
let dijkstra_tree g failed lengths src =
  let n = G.num_nodes g in
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  let visited = Array.make n false in
  dist.(src) <- 0.0;
  let rec loop () =
    let best = ref (-1) and best_d = ref infinity in
    for v = 0 to n - 1 do
      if (not visited.(v)) && dist.(v) < !best_d then begin
        best := v;
        best_d := dist.(v)
      end
    done;
    if !best >= 0 then begin
      let u = !best in
      visited.(u) <- true;
      Array.iter
        (fun e ->
          if not failed.(e) then begin
            let v = G.dst g e in
            let nd = dist.(u) +. lengths.(e) in
            if nd < dist.(v) -. 1e-15 then begin
              dist.(v) <- nd;
              pred.(v) <- e
            end
          end)
        (G.out_links g u);
      loop ()
    end
  in
  loop ();
  (dist, pred)

let path_links pred ~src ~dst g =
  let rec walk v acc =
    if v = src then Some acc
    else begin
      let e = pred.(v) in
      if e < 0 then None else walk (G.src g e) (e :: acc)
    end
  in
  walk dst []

module Obs = struct
  module M = R3_util.Metrics

  let runs = M.counter "mcf.runs"
  let phases = M.counter "mcf.phases"
  let iterations = M.counter "mcf.iterations"
  let exact_solves = M.counter "mcf.exact_solves"
  let solve_seconds = M.histogram "mcf.solve.seconds"
end

let run_gk_body g ?failed ~epsilon ~track ~pairs ~demands () =
  let failed = match failed with Some f -> f | None -> G.no_failures g in
  let m = G.num_links g in
  (* Keep only routable commodities with positive demand. *)
  let reach = Hashtbl.create 8 in
  let reachable_from a =
    match Hashtbl.find_opt reach a with
    | Some r -> r
    | None ->
      let r = G.reachable g ~failed a in
      Hashtbl.replace reach a r;
      r
  in
  let live =
    Array.to_list (Array.mapi (fun k (a, b) -> (k, a, b)) pairs)
    |> List.filter (fun (k, a, b) -> demands.(k) > 0.0 && (reachable_from a).(b))
  in
  let zero_routing () = R3_net.Routing.create g ~pairs in
  if live = [] then ({ mlu = 0.0; iterations = 0 }, zero_routing ())
  else begin
    (* Pre-scale demands so the optimal concurrent throughput is near 1:
       min-MLU is linear in demand, and the ECMP-OSPF MLU is an upper
       bound on it. *)
    let pre_pairs = Array.of_list (List.map (fun (_, a, b) -> (a, b)) live) in
    let pre_dem = Array.of_list (List.map (fun (k, _, _) -> demands.(k)) live) in
    let ospf =
      R3_net.Ospf.routing g ~failed ~weights:(R3_net.Ospf.unit_weights g)
        ~pairs:pre_pairs ()
    in
    let ospf_loads = R3_net.Routing.loads g ~demands:pre_dem ospf in
    let ospf_mlu = R3_net.Routing.mlu g ~loads:ospf_loads in
    if ospf_mlu <= 0.0 then ({ mlu = 0.0; iterations = 0 }, zero_routing ())
    else begin
      let scale = 1.0 /. ospf_mlu in
      let dem = Array.map (fun d -> d *. scale) pre_dem in
      (* Garg-Konemann with exponential lengths. *)
      let delta = (1.0 +. epsilon) *. (((1.0 +. epsilon) *. float_of_int m) ** (-1.0 /. epsilon)) in
      let lengths = Array.init m (fun e -> delta /. G.capacity g e) in
      let flows = Array.make m 0.0 in
      let nlive = Array.length pre_pairs in
      let kflows = if track then Array.make_matrix nlive m 0.0 else [||] in
      let iterations = ref 0 in
      let dual () =
        let acc = ref 0.0 in
        for e = 0 to m - 1 do
          if not failed.(e) then acc := !acc +. (lengths.(e) *. G.capacity g e)
        done;
        !acc
      in
      (* Group commodities by source to share Dijkstra trees. *)
      let by_src = Hashtbl.create 8 in
      Array.iteri
        (fun k (a, _) ->
          let l = Option.value (Hashtbl.find_opt by_src a) ~default:[] in
          Hashtbl.replace by_src a (k :: l))
        pre_pairs;
      let phases = ref 0 in
      let max_iterations = 200_000 in
      while dual () < 1.0 && !iterations < max_iterations do
        Hashtbl.iter
          (fun src ks ->
            let tree = ref None in
            let get_tree () =
              match !tree with
              | Some t -> t
              | None ->
                incr iterations;
                let t = dijkstra_tree g failed lengths src in
                tree := Some t;
                t
            in
            List.iter
              (fun k ->
                let _, b = pre_pairs.(k) in
                let remaining = ref dem.(k) in
                let guard = ref 0 in
                while !remaining > 1e-12 && !guard < 200 do
                  incr guard;
                  let _, pred = get_tree () in
                  match path_links pred ~src ~dst:b g with
                  | None -> remaining := 0.0 (* unreachable: should not happen *)
                  | Some path ->
                    let bottleneck =
                      List.fold_left
                        (fun a e -> Float.min a (G.capacity g e))
                        infinity path
                    in
                    let gamma = Float.min !remaining bottleneck in
                    List.iter
                      (fun e ->
                        flows.(e) <- flows.(e) +. gamma;
                        if track then kflows.(k).(e) <- kflows.(k).(e) +. gamma;
                        lengths.(e) <-
                          lengths.(e) *. (1.0 +. (epsilon *. gamma /. G.capacity g e)))
                      path;
                    remaining := !remaining -. gamma;
                    (* lengths changed; refresh the tree on the next loop *)
                    if !remaining > 1e-12 then tree := None
                done)
              ks)
          by_src;
        incr phases
      done;
      let t = Float.max 1.0 (float_of_int !phases) in
      let worst = ref 0.0 in
      for e = 0 to m - 1 do
        if not failed.(e) then begin
          let u = flows.(e) /. G.capacity g e in
          if u > !worst then worst := u
        end
      done;
      (* flows route t * dem; divide by t for one unit of dem, then undo the
         pre-scaling. *)
      let routing = zero_routing () in
      if track then begin
        List.iteri
          (fun i (orig_k, _, _) ->
            if dem.(i) > 0.0 then begin
              let denom = t *. dem.(i) in
              R3_net.Routing.set_row_dense routing orig_k
                (Array.map
                   (fun f -> Float.max 0.0 (Float.min 1.0 (f /. denom)))
                   kflows.(i))
            end)
          live
      end;
      let mlu = !worst /. t /. scale in
      R3_util.Metrics.add Obs.phases !phases;
      R3_util.Metrics.add Obs.iterations !iterations;
      R3_util.Trace.add_attr "phases" (R3_util.Trace.Int !phases);
      R3_util.Trace.add_attr "iterations" (R3_util.Trace.Int !iterations);
      R3_util.Trace.add_attr "mlu" (R3_util.Trace.Float mlu);
      ({ mlu; iterations = !iterations }, routing)
    end
  end

let run_gk g ?failed ?(epsilon = 0.05) ~track ~pairs ~demands () =
  R3_util.Metrics.incr Obs.runs;
  R3_util.Metrics.time Obs.solve_seconds (fun () ->
      R3_util.Trace.with_span "mcf.solve"
        ~attrs:[ ("epsilon", R3_util.Trace.Float epsilon) ]
        (fun () -> run_gk_body g ?failed ~epsilon ~track ~pairs ~demands ()))

let min_mlu g ?failed ?epsilon ~pairs ~demands () =
  fst (run_gk g ?failed ?epsilon ~track:false ~pairs ~demands ())

let min_mlu_routing g ?failed ?epsilon ~pairs ~demands () =
  run_gk g ?failed ?epsilon ~track:true ~pairs ~demands ()

module P = R3_lp.Problem

let min_mlu_exact g ?failed ~pairs ~demands () =
  R3_util.Metrics.incr Obs.exact_solves;
  R3_util.Trace.with_span "mcf.exact" @@ fun () ->
  let failed = match failed with Some f -> f | None -> G.no_failures g in
  let m = G.num_links g in
  let n = G.num_nodes g in
  let live =
    Array.to_list (Array.mapi (fun k (a, b) -> (k, a, b)) pairs)
    |> List.filter (fun (k, a, b) ->
           demands.(k) > 0.0 && (G.reachable g ~failed a).(b))
  in
  let lp = P.create ~name:"min-mlu-exact" () in
  let mlu = P.var lp ~lb:0.0 "MLU" in
  let vars = Hashtbl.create 64 in
  List.iter
    (fun (k, a, _) ->
      for e = 0 to m - 1 do
        if (not failed.(e)) && G.dst g e <> a then
          Hashtbl.replace (vars : (int * int, P.var) Hashtbl.t) (k, e)
            (P.var lp ~lb:0.0 (Printf.sprintf "r%d_%d" k e))
      done)
    live;
  let term k e = Option.map (fun v -> (1.0, v)) (Hashtbl.find_opt vars (k, e)) in
  List.iter
    (fun (k, a, b) ->
      let outs =
        Array.to_list (G.out_links g a) |> List.filter_map (fun e -> term k e)
      in
      P.constr lp outs P.Eq 1.0;
      for v = 0 to n - 1 do
        if v <> a && v <> b then begin
          let outs =
            Array.to_list (G.out_links g v) |> List.filter_map (fun e -> term k e)
          in
          let ins =
            Array.to_list (G.in_links g v)
            |> List.filter_map (fun e ->
                   Option.map (fun (c, v) -> (-.c, v)) (term k e))
          in
          P.constr lp (outs @ ins) P.Eq 0.0
        end
      done)
    live;
  for e = 0 to m - 1 do
    if not failed.(e) then begin
      let terms =
        List.filter_map
          (fun (k, _, _) ->
            Option.map (fun v -> (demands.(k), v)) (Hashtbl.find_opt vars (k, e)))
          live
      in
      if terms <> [] then
        P.constr lp ((-.G.capacity g e, mlu) :: terms) P.Le 0.0
    end
  done;
  P.minimize lp [ (1.0, mlu) ];
  (* small loop suppression *)
  Hashtbl.iter (fun _ v -> P.add_objective_term lp 1e-7 v) vars;
  match P.solve lp with
  | P.Optimal sol ->
    let routing = R3_net.Routing.create g ~pairs in
    List.iter
      (fun (k, _, _) ->
        for e = 0 to m - 1 do
          match Hashtbl.find_opt vars (k, e) with
          | Some v ->
            R3_net.Routing.set routing k e
              (Float.max 0.0 (Float.min 1.0 (sol.P.value v)))
          | None -> ()
        done)
      live;
    Ok (sol.P.value mlu, routing)
  | P.Infeasible -> Error "min_mlu_exact: infeasible"
  | P.Unbounded -> Error "min_mlu_exact: unbounded"
  | P.Iteration_limit -> Error "min_mlu_exact: iteration limit"
