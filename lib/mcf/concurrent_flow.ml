module G = R3_net.Graph

type result = { mlu : float; iterations : int; capped : bool }

let max_iterations = 500_000

module Obs = struct
  module M = R3_util.Metrics

  let runs = M.counter "mcf.runs"
  let phases = M.counter "mcf.phases"
  let iterations = M.counter "mcf.iterations"
  let capped = M.counter "mcf.capped"
  let exact_solves = M.counter "mcf.exact_solves"
  let solve_seconds = M.histogram "mcf.solve.seconds"
end

(* The surviving links as flat arrays, and one Dijkstra scratch reused
   by every tree of a solve. Node u's live out-links are
   [out_link.(out_start.(u)) .. out_link.(out_start.(u + 1) - 1)] in
   [Graph.out_links] order, with their heads in [out_head]. [key] holds a
   node's tentative distance until it is visited and +inf after, so the
   selection scan reads one array; [dist] keeps the distances the
   relaxation compares against. A visited node v is never relaxed again
   (du + l >= du >= dv), so nothing else records visits. *)
type kernel = {
  out_start : int array;
  out_link : int array;
  out_head : int array;
  link_src : int array;
  cap : float array;
  dist : float array;
  key : float array;
  pred : int array;
}

let kernel g failed =
  let n = G.num_nodes g and m = G.num_links g in
  let out_start = Array.make (n + 1) 0 in
  let out_link = Array.make m 0 and out_head = Array.make m 0 in
  let fill = ref 0 in
  for u = 0 to n - 1 do
    out_start.(u) <- !fill;
    Array.iter
      (fun e ->
        if not failed.(e) then begin
          out_link.(!fill) <- e;
          out_head.(!fill) <- G.dst g e;
          incr fill
        end)
      (G.out_links g u)
  done;
  out_start.(n) <- !fill;
  {
    out_start;
    out_link;
    out_head;
    link_src = Array.init m (G.src g);
    cap = Array.init m (G.capacity g);
    dist = Array.make n infinity;
    key = Array.make n infinity;
    pred = Array.make n (-1);
  }

(* Dijkstra from [src] under [lengths] into [k.pred]: the predecessor
   link toward each reached node, -1 elsewhere. O(n^2), adequate for
   backbone-scale graphs. *)
let shortest_tree k lengths src =
  let n = Array.length k.key in
  Array.fill k.dist 0 n infinity;
  Array.fill k.key 0 n infinity;
  Array.fill k.pred 0 n (-1);
  k.dist.(src) <- 0.0;
  k.key.(src) <- 0.0;
  let u = ref src in
  while !u >= 0 do
    let du = k.key.(!u) in
    k.key.(!u) <- infinity;
    for i = k.out_start.(!u) to k.out_start.(!u + 1) - 1 do
      let e = k.out_link.(i) and v = k.out_head.(i) in
      let nd = du +. lengths.(e) in
      if nd < k.dist.(v) -. 1e-15 then begin
        k.dist.(v) <- nd;
        k.key.(v) <- nd;
        k.pred.(v) <- e
      end
    done;
    let best = ref (-1) and best_d = ref infinity in
    for v = 0 to n - 1 do
      if k.key.(v) < !best_d then begin
        best := v;
        best_d := k.key.(v)
      end
    done;
    u := !best
  done

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
  let nothing = { mlu = 0.0; iterations = 0; capped = false } in
  if live = [] then (nothing, zero_routing ())
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
    if ospf_mlu <= 0.0 then (nothing, zero_routing ())
    else begin
      let scale = 1.0 /. ospf_mlu in
      let dem = Array.map (fun d -> d *. scale) pre_dem in
      let k = kernel g failed in
      let cap = k.cap in
      (* Garg-Konemann with exponential lengths. *)
      let delta = (1.0 +. epsilon) *. (((1.0 +. epsilon) *. float_of_int m) ** (-1.0 /. epsilon)) in
      let lengths = Array.init m (fun e -> delta /. cap.(e)) in
      let flows = Array.make m 0.0 in
      let nlive = Array.length pre_pairs in
      let kflows = if track then Array.make_matrix nlive m 0.0 else [||] in
      let iterations = ref 0 in
      let dual () =
        let acc = ref 0.0 in
        for e = 0 to m - 1 do
          if not failed.(e) then acc := !acc +. (lengths.(e) *. cap.(e))
        done;
        !acc
      in
      (* Group commodities by source to share Dijkstra trees: sources in
         the order a [Hashtbl.iter] over the groups visits them, each
         group in decreasing commodity index. *)
      let by_src = Hashtbl.create 8 in
      Array.iteri
        (fun c (a, _) ->
          let l = Option.value (Hashtbl.find_opt by_src a) ~default:[] in
          Hashtbl.replace by_src a (c :: l))
        pre_pairs;
      let groups = ref [] in
      Hashtbl.iter (fun src cs -> groups := (src, Array.of_list cs) :: !groups) by_src;
      let groups = Array.of_list (List.rev !groups) in
      let phases = ref 0 in
      while dual () < 1.0 && !iterations < max_iterations do
        for gi = 0 to Array.length groups - 1 do
          let src, cs = groups.(gi) in
          (* One tree serves the source's commodities in turn, although
             every augmentation raises lengths; it is rebuilt only for a
             commodity's second and later paths. *)
          let fresh = ref false in
          for ci = 0 to Array.length cs - 1 do
            let c = cs.(ci) in
            let _, b = pre_pairs.(c) in
            let remaining = ref dem.(c) in
            let guard = ref 0 in
            while !remaining > 1e-12 && !guard < 200 do
              incr guard;
              if not !fresh then begin
                incr iterations;
                shortest_tree k lengths src;
                fresh := true
              end;
              (* Walk the tree path back from b twice: once for its
                 bottleneck, once to push gamma. The min is taken with
                 [<] rather than [Float.min], which allocates here. *)
              let v = ref b and bottleneck = ref infinity in
              while !v <> src && !v >= 0 do
                let e = k.pred.(!v) in
                if e < 0 then v := -1
                else begin
                  if cap.(e) < !bottleneck then bottleneck := cap.(e);
                  v := k.link_src.(e)
                end
              done;
              if !v < 0 then remaining := 0.0 (* unreachable: should not happen *)
              else begin
                let gamma = if !bottleneck < !remaining then !bottleneck else !remaining in
                let v = ref b in
                while !v <> src do
                  let e = k.pred.(!v) in
                  flows.(e) <- flows.(e) +. gamma;
                  if track then kflows.(c).(e) <- kflows.(c).(e) +. gamma;
                  lengths.(e) <- lengths.(e) *. (1.0 +. (epsilon *. gamma /. cap.(e)));
                  v := k.link_src.(e)
                done;
                remaining := !remaining -. gamma;
                (* lengths changed; refresh the tree on the next loop *)
                if !remaining > 1e-12 then fresh := false
              end
            done
          done
        done;
        incr phases
      done;
      let capped = dual () < 1.0 in
      let t = Float.max 1.0 (float_of_int !phases) in
      let worst = ref 0.0 in
      for e = 0 to m - 1 do
        if not failed.(e) then begin
          let u = flows.(e) /. cap.(e) in
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
      if capped then R3_util.Metrics.incr Obs.capped;
      R3_util.Trace.add_attr "phases" (R3_util.Trace.Int !phases);
      R3_util.Trace.add_attr "iterations" (R3_util.Trace.Int !iterations);
      R3_util.Trace.add_attr "capped" (R3_util.Trace.Bool capped);
      R3_util.Trace.add_attr "mlu" (R3_util.Trace.Float mlu);
      ({ mlu; iterations = !iterations; capped }, routing)
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

let min_mlu_exact g ?failed ~pairs ~demands () =
  R3_util.Metrics.incr Obs.exact_solves;
  R3_util.Trace.with_span "mcf.exact" @@ fun () ->
  let failed = match failed with Some f -> f | None -> G.no_failures g in
  let live =
    List.init (Array.length pairs) Fun.id
    |> List.filter (fun k ->
           let a, b = pairs.(k) in
           demands.(k) > 0.0 && (G.reachable g ~failed a).(b))
    |> Array.of_list
  in
  match
    Flow_lp.min_mlu g ~failed
      ~pairs:(Array.map (fun k -> pairs.(k)) live)
      ~demands:(Array.map (fun k -> demands.(k)) live)
      ~background:(Array.make (G.num_links g) 0.0)
  with
  | Error status -> Error ("min_mlu_exact: " ^ status)
  | Ok (mlu, flows) ->
    let routing = R3_net.Routing.create g ~pairs in
    Array.iteri
      (fun i k ->
        R3_net.Routing.set_row_dense routing k
          (Array.map (fun x -> Float.max 0.0 (Float.min 1.0 x)) flows.(i)))
      live;
    Ok (mlu, routing)
