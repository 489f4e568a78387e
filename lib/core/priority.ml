module P = R3_lp.Problem
module G = R3_net.Graph
module Routing = R3_net.Routing
module Traffic = R3_net.Traffic

type class_spec = { demand : Traffic.t; f : int }

type plan = { plan : Offline.plan; class_mlus : float array }

let class_demands pairs spec = Array.map (fun (a, b) -> spec.demand.(a).(b)) pairs

let audit_class_mlus ?srlgs ~classes (plan : Offline.plan) =
  let g = plan.Offline.graph in
  let m = R3_net.Graph.num_links g in
  classes
  |> List.map (fun spec ->
         let demands = class_demands plan.Offline.pairs spec in
         let base_loads = Routing.loads g ~demands plan.Offline.base in
         match srlgs with
         | None ->
           Verify.offline_worst_mlu g ~f:spec.f ~base_loads
             ~protection:plan.Offline.protection
         | Some groups ->
           let weights = Virtual_demand.weight_columns g plan.Offline.protection in
           let worst = ref 0.0 in
           for e = 0 to m - 1 do
             let value, _ =
               Structured.worst_structured_load
                 { Structured.srlgs = groups; mlgs = []; k = spec.f }
                 weights.(e)
             in
             let u = (base_loads.(e) +. value) /. R3_net.Graph.capacity g e in
             if u > !worst then worst := u
           done;
           !worst)
  |> Array.of_list

let compute (cfg : Offline.config) g ?srlgs ~classes base_spec =
  if classes = [] then invalid_arg "Priority.compute: no classes";
  List.iter
    (fun c -> if c.f < 0 then invalid_arg "Priority.compute: negative budget")
    classes;
  (* Commodities: union of class supports. *)
  let n = G.num_nodes g in
  let union = Array.make_matrix n n 0.0 in
  List.iter
    (fun c ->
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if c.demand.(a).(b) > union.(a).(b) then union.(a).(b) <- c.demand.(a).(b)
        done
      done)
    classes;
  let pairs, _ = Traffic.commodities union in
  let max_demands = Array.map (fun (a, b) -> union.(a).(b)) pairs in
  let per_class_demands = List.map (class_demands pairs) classes in
  let budgets = List.map (fun c -> c.f) classes in
  let m = G.num_links g in
  let lp = P.create ~name:"r3-prioritized" () in
  let mlu = P.var lp ~lb:0.0 "MLU" in
  let link_prs = Lp_build.link_pairs g in
  let p_vars = Lp_build.routing_vars lp g ~prefix:"p" ~pairs:link_prs in
  Lp_build.routing_constraints lp g ~pairs:link_prs p_vars;
  let r_vars =
    match base_spec with
    | Offline.Joint ->
      let rv = Lp_build.routing_vars lp g ~prefix:"r" ~pairs in
      Lp_build.routing_constraints lp g ~pairs rv;
      Some rv
    | Offline.Fixed r ->
      if Routing.num_commodities r <> Array.length pairs then
        invalid_arg "Priority.compute: fixed base commodities mismatch";
      None
  in
  P.minimize lp [ (1.0, mlu) ];
  Lp_build.add_loop_penalty lp cfg.Offline.loop_penalty p_vars;
  Lp_build.penalize_self_protection lp g cfg.Offline.loop_penalty p_vars;
  (match r_vars with
  | Some rv -> Lp_build.add_loop_penalty lp cfg.Offline.loop_penalty rv
  | None -> ());
  (* Base-load terms of class [ci] on link [e]. *)
  let base_terms ci e =
    let demands = List.nth per_class_demands ci in
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
  (* Cache fixed-base per-class loads to avoid recomputation each round. *)
  let fixed_loads =
    match base_spec with
    | Offline.Fixed r ->
      Some (List.map (fun demands -> Routing.loads g ~demands r) per_class_demands)
    | Offline.Joint -> None
  in
  (* Initial rows: per class, normal load within MLU. *)
  List.iteri
    (fun ci _ ->
      for e = 0 to m - 1 do
        let terms, const = base_terms ci e in
        if terms <> [] || const > 0.0 then
          P.constr lp ((-.G.capacity g e, mlu) :: terms) P.Le (-.const)
      done)
    per_class_demands;
  let seen = Hashtbl.create 128 in
  (* Warm-started rounds, as in [Offline.compute_cg]. *)
  let sess = P.session ?max_pivots:cfg.Offline.max_pivots lp in
  let rec iterate round =
    let budget_left = round <= cfg.Offline.cg_max_rounds in
    begin
      match P.resolve sess with
      | P.Infeasible -> Error "prioritized R3: infeasible"
      | P.Unbounded -> Error "prioritized R3: unbounded"
      | P.Iteration_limit -> Error "prioritized R3: pivot budget exhausted"
      | P.Optimal sol ->
        let p = Lp_build.extract_routing sol g ~pairs:link_prs p_vars in
        let mlu_val = sol.P.value mlu in
        let base_loads_for ci =
          match fixed_loads with
          | Some l -> List.nth l ci
          | None ->
            let r =
              Lp_build.extract_routing sol g ~pairs (Option.get r_vars)
            in
            Routing.loads g ~demands:(List.nth per_class_demands ci) r
        in
        let violated = ref 0 in
        let weights_by_link = Virtual_demand.weight_columns g p in
        List.iteri
          (fun ci fi ->
            let loads = base_loads_for ci in
            for e = 0 to m - 1 do
              let weights = weights_by_link.(e) in
              (* Oracle: plain knapsack for arbitrary failures, or the
                 structured LP restricted to fi concurrent SRLG events.
                 Both yield cut coefficients y_l * c_l per link. *)
              let ml, y =
                match srlgs with
                | None ->
                  let ml, set = Virtual_demand.worst_virtual_load_set ~f:fi weights in
                  let y = Array.make m 0.0 in
                  List.iter (fun l -> y.(l) <- 1.0) set;
                  (ml, y)
                | Some groups ->
                  Structured.worst_structured_load
                    { Structured.srlgs = groups; mlgs = []; k = fi }
                    weights
              in
              let cap = G.capacity g e in
              if loads.(e) +. ml > ((mlu_val +. 1e-7) *. cap) +. 1e-7 then begin
                let key =
                  ( ci,
                    e,
                    Array.to_list
                      (Array.map (fun v -> int_of_float (Float.round (v *. 1000.0))) y) )
                in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.add seen key ();
                  incr violated;
                  let terms, const = base_terms ci e in
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
            done)
          budgets;
        if !violated > 0 && budget_left then iterate (round + 1)
        else begin
          let base =
            match (base_spec, r_vars) with
            | Offline.Fixed r, _ -> r
            | Offline.Joint, Some rv -> Lp_build.extract_routing sol g ~pairs rv
            | Offline.Joint, None -> assert false
          in
          let max_f = List.fold_left Int.max 0 budgets in
          let off_plan =
            {
              Offline.graph = g;
              f = max_f;
              pairs;
              demands = max_demands;
              base;
              protection = p;
              mlu = mlu_val;
              lp_vars = P.num_vars lp;
              lp_rows = P.num_constraints lp;
              lp_pivots = P.session_pivots sess;
            }
          in
          let class_mlus =
            audit_class_mlus ?srlgs
              ~classes:(List.map (fun c -> { demand = c.demand; f = c.f }) classes)
              off_plan
          in
          (* on budget exhaustion the audited class maxima are the honest
             worst case; the LP value would understate them *)
          let off_plan =
            if !violated = 0 then off_plan
            else { off_plan with Offline.mlu = Array.fold_left Float.max 0.0 class_mlus }
          in
          Ok { plan = off_plan; class_mlus }
        end
    end
  in
  iterate 1
