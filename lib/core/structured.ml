module P = R3_lp.Problem
module G = R3_net.Graph
module Routing = R3_net.Routing

type groups = {
  srlgs : G.link list list;
  mlgs : G.link list list;
  k : int;
}

(* Links covered by at least one group; only they can carry virtual demand
   under (18). *)
let covered_links groups nlinks =
  let covered = Array.make nlinks false in
  List.iter (List.iter (fun l -> covered.(l) <- true)) groups.srlgs;
  List.iter (List.iter (fun l -> covered.(l) <- true)) groups.mlgs;
  covered

(* Fast path: disjoint SRLGs and no MLGs make (18) a unit-weight knapsack
   over groups (the constraint matrix is an interval matrix, so the LP
   relaxation is integral): take the k groups with the largest total
   weight. *)
let disjoint_srlgs_only groups m =
  if groups.mlgs <> [] then None
  else begin
    let seen = Array.make m false in
    let ok =
      List.for_all
        (fun grp ->
          List.for_all
            (fun l ->
              if l < 0 || l >= m || seen.(l) then false
              else begin
                seen.(l) <- true;
                true
              end)
            grp)
        groups.srlgs
    in
    if ok then Some () else None
  end

let worst_disjoint groups weights =
  let m = Array.length weights in
  let values =
    List.map
      (fun grp -> (List.fold_left (fun a l -> a +. weights.(l)) 0.0 grp, grp))
      groups.srlgs
    |> List.sort (fun (a, _) (b, _) -> Float.compare b a)
  in
  let y = Array.make m 0.0 in
  let total = ref 0.0 in
  List.iteri
    (fun i (v, grp) ->
      if i < groups.k && v > 0.0 then begin
        total := !total +. v;
        List.iter (fun l -> y.(l) <- 1.0) grp
      end)
    values;
  (!total, y)

let worst_structured_load groups weights =
  let m = Array.length weights in
  match disjoint_srlgs_only groups m with
  | Some () -> worst_disjoint groups weights
  | None ->
  let covered = covered_links groups m in
  let lp = P.create ~name:"structured-oracle" () in
  let y =
    Array.init m (fun l ->
        if covered.(l) && weights.(l) > 0.0 then
          Some (P.var lp ~lb:0.0 ~ub:1.0 (Printf.sprintf "y%d" l))
        else None)
  in
  let group_vars gs prefix =
    List.mapi (fun i _ -> P.var lp ~lb:0.0 (Printf.sprintf "%s%d" prefix i)) gs
  in
  let srlg_vars = group_vars groups.srlgs "S" in
  let mlg_vars = group_vars groups.mlgs "M" in
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
  let obj =
    Array.to_list y
    |> List.mapi (fun l yv -> Option.map (fun v -> (weights.(l), v)) yv)
    |> List.filter_map Fun.id
  in
  P.maximize lp obj;
  match P.solve lp with
  | P.Optimal sol ->
    let intensities =
      Array.mapi
        (fun _ yv -> match yv with Some v -> sol.P.value v | None -> 0.0)
        y
    in
    (sol.P.objective, intensities)
  | P.Infeasible | P.Unbounded | P.Iteration_limit ->
    (* The oracle polytope is a nonempty bounded box-like region; failure
       here indicates a solver bug, so fail loudly. *)
    failwith "structured oracle LP failed"

let audit_mlu (plan : Offline.plan) groups =
  let g = plan.Offline.graph in
  let m = G.num_links g in
  let base_loads = Routing.loads g ~demands:plan.Offline.demands plan.Offline.base in
  let weights = Virtual_demand.weight_columns g plan.Offline.protection in
  let utils =
    R3_util.Parallel.init ~chunk:(R3_util.Parallel.chunk_hint m) m (fun e ->
        let value, _ = worst_structured_load groups weights.(e) in
        (base_loads.(e) +. value) /. G.capacity g e)
  in
  Array.fold_left Float.max 0.0 utils

(* Same instruments as [Offline.Obs]: Metrics interns by name, so these
   handles alias the ones offline.ml registered. *)
module Obs = struct
  module M = R3_util.Metrics
  module T = R3_util.Trace

  let computes = M.counter "offline.computes"
  let cg_rounds = M.counter "offline.cg.rounds"
  let cg_cuts = M.counter "offline.cg.cuts"
  let compute_seconds = M.histogram "offline.compute.seconds"
end

let compute (cfg : Offline.config) g tm groups base_spec =
  Obs.M.incr Obs.computes;
  Obs.M.time Obs.compute_seconds @@ fun () ->
  Obs.T.with_span "offline.compute"
    ~attrs:
      [ ("f", Obs.T.Int groups.k); ("method", Obs.T.String "structured-cg") ]
  @@ fun () ->
  let pairs, demands = R3_net.Traffic.commodities tm in
  let m = G.num_links g in
  let lp = P.create ~name:"r3-structured" () in
  let mlu = P.var lp ~lb:0.0 "MLU" in
  let link_prs = Lp_build.link_pairs g in
  let p_vars = Lp_build.routing_vars lp g ~prefix:"p" ~pairs:link_prs in
  Lp_build.routing_constraints lp g ~pairs:link_prs p_vars;
  let r_vars =
    match base_spec with
    | Offline.Joint ->
      let rv = Lp_build.routing_vars lp g ~prefix:"r" ~pairs in
      Lp_build.routing_constraints lp g ~pairs rv;
      (* Penalty envelope (Section 3.5) on the no-failure MLU. *)
      (match cfg.Offline.envelope with
      | None -> ()
      | Some (beta, mlu_opt) ->
        for e = 0 to m - 1 do
          let terms = ref [] in
          Array.iteri
            (fun k row ->
              match row.(e) with
              | Some v when demands.(k) > 0.0 -> terms := (demands.(k), v) :: !terms
              | Some _ | None -> ())
            rv;
          if !terms <> [] then
            P.constr lp !terms P.Le (beta *. mlu_opt *. G.capacity g e)
        done);
      (* Delay penalty envelope. *)
      (match cfg.Offline.delay_envelope with
      | None -> ()
      | Some gamma ->
        Array.iteri
          (fun k (a, b) ->
            let best = R3_net.Spf.min_propagation_delay g ~src:a ~dst:b () in
            if best < infinity then begin
              let terms = ref [] in
              Array.iteri
                (fun e v ->
                  match v with
                  | Some var when G.delay g e > 0.0 ->
                    terms := (G.delay g e, var) :: !terms
                  | Some _ | None -> ())
                rv.(k);
              if !terms <> [] then P.constr lp !terms P.Le (gamma *. best)
            end)
          pairs);
      Some rv
    | Offline.Fixed r ->
      if Routing.num_commodities r <> Array.length pairs then
        invalid_arg "Structured.compute: fixed base commodities mismatch";
      None
  in
  P.minimize lp [ (1.0, mlu) ];
  Lp_build.add_loop_penalty lp cfg.Offline.loop_penalty p_vars;
  Lp_build.penalize_self_protection lp g cfg.Offline.loop_penalty p_vars;
  Lp_build.penalize_virtual_concentration lp g (50.0 *. cfg.Offline.loop_penalty) p_vars;
  (match r_vars with
  | Some rv -> Lp_build.add_loop_penalty lp cfg.Offline.loop_penalty rv
  | None -> ());
  let base_terms e =
    match (r_vars, base_spec) with
    | Some rv, _ ->
      let acc = ref [] in
      Array.iteri
        (fun k row ->
          match row.(e) with
          | Some v when demands.(k) > 0.0 -> acc := (demands.(k), v) :: !acc
          | Some _ | None -> ())
        rv;
      (!acc, 0.0)
    | None, Offline.Fixed r ->
      let loads = Routing.loads g ~demands r in
      ([], loads.(e))
    | None, Offline.Joint -> assert false
  in
  for e = 0 to m - 1 do
    let terms, const = base_terms e in
    if terms <> [] || const > 0.0 then
      P.constr lp ((-.G.capacity g e, mlu) :: terms) P.Le (-.const)
  done;
  let seen = Hashtbl.create 64 in
  let quantize y = Array.map (fun v -> int_of_float (Float.round (v *. 1000.0))) y in
  (* Same warm-start discipline as [Offline.compute_cg]: keep the simplex
     basis across rounds and repair it after each batch of cuts. *)
  let sess = P.session ?max_pivots:cfg.Offline.max_pivots lp in
  let solve_round () =
    Obs.T.with_span "offline.lp_solve" @@ fun () -> P.resolve sess
  in
  let rec iterate round =
    let budget_left = round <= cfg.Offline.cg_max_rounds in
    Obs.M.incr Obs.cg_rounds;
    begin
      match solve_round () with
      | P.Infeasible -> Error "structured R3: infeasible"
      | P.Unbounded -> Error "structured R3: unbounded"
      | P.Iteration_limit -> Error "structured R3: pivot budget exhausted"
      | P.Optimal sol ->
        let p = Lp_build.extract_routing sol g ~pairs:link_prs p_vars in
        let mlu_val = sol.P.value mlu in
        let base_loads =
          match base_spec with
          | Offline.Fixed r -> Routing.loads g ~demands r
          | Offline.Joint ->
            let r = Lp_build.extract_routing sol g ~pairs (Option.get r_vars) in
            Routing.loads g ~demands r
        in
        (* Separation per link: chunked edge ranges submitted to the
           persistent pool each round; slot-ordered results keep the cut
           order identical to a sequential loop. *)
        let oracle =
          Obs.T.with_span "offline.oracle" @@ fun () ->
          let weights = Virtual_demand.weight_columns g p in
          R3_util.Parallel.init ~chunk:(R3_util.Parallel.chunk_hint m) m (fun e ->
              worst_structured_load groups weights.(e))
        in
        let violated = ref 0 in
        for e = 0 to m - 1 do
          let value, y = oracle.(e) in
          let cap = G.capacity g e in
          if base_loads.(e) +. value > ((mlu_val +. 1e-7) *. cap) +. 1e-7 then begin
            let key = (e, Array.to_list (quantize y)) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              incr violated;
              let terms, const = base_terms e in
              let p_terms = ref [] in
              Array.iteri
                (fun l yl ->
                  if yl > 1e-9 then
                    match p_vars.(l).(e) with
                    | Some v -> p_terms := (yl *. G.capacity g l, v) :: !p_terms
                    | None -> ())
                y;
              P.constr lp
                (((-.cap, mlu) :: terms) @ !p_terms)
                P.Le (-.const)
            end
          end
        done;
        Obs.M.add Obs.cg_cuts !violated;
        if !violated > 0 && budget_left then iterate (round + 1)
        else begin
          Obs.T.add_attr "cg_rounds" (Obs.T.Int round);
          let base =
            match (base_spec, r_vars) with
            | Offline.Fixed r, _ -> r
            | Offline.Joint, Some rv -> Lp_build.extract_routing sol g ~pairs rv
            | Offline.Joint, None -> assert false
          in
          let plan =
            {
              Offline.graph = g;
              f = groups.k;
              pairs;
              demands;
              base;
              protection = p;
              mlu = mlu_val;
              lp_vars = P.num_vars lp;
              lp_rows = P.num_constraints lp;
              lp_pivots = P.session_pivots sess;
            }
          in
          (* audited value when the cut budget ran out *)
          let plan =
            if !violated = 0 then plan
            else { plan with Offline.mlu = audit_mlu plan groups }
          in
          Ok plan
        end
    end
  in
  iterate 1
