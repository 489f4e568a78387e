module P = R3_lp.Problem
module G = R3_net.Graph
module Routing = R3_net.Routing
module Traffic = R3_net.Traffic
module Parallel = R3_util.Parallel

module Obs = struct
  module M = R3_util.Metrics
  module T = R3_util.Trace

  let computes = M.counter "offline.computes"
  let cg_rounds = M.counter "offline.cg.rounds"
  let cg_cuts = M.counter "offline.cg.cuts"
  let compute_seconds = M.histogram "offline.compute.seconds"
end

type base_spec = Joint | Fixed of Routing.t

type method_ = Dualized | Constraint_gen

type config = {
  f : int;
  loop_penalty : float;
  envelope : (float * float) option;
  delay_envelope : float option;
  solve_method : method_;
  max_pivots : int option;
  cg_max_rounds : int;
  core : Config.t;
}

let default_config ~f =
  {
    f;
    loop_penalty = 1e-6;
    envelope = None;
    delay_envelope = None;
    solve_method = Dualized;
    max_pivots = None;
    cg_max_rounds = 60;
    core = Config.default;
  }

let with_core core cfg = { cfg with core }

type plan = {
  graph : G.t;
  f : int;
  pairs : (G.node * G.node) array;
  demands : float array;
  base : Routing.t;
  protection : Routing.t;
  mlu : float;
  lp_vars : int;
  lp_rows : int;
  lp_pivots : int;
}

(* Commodities shared by all traffic matrices: the union of supports, with
   per-matrix demand vectors aligned on it. *)
let union_commodities g tms =
  let n = G.num_nodes g in
  let union = Array.make_matrix n n 0.0 in
  List.iter
    (fun tm ->
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if tm.(a).(b) > union.(a).(b) then union.(a).(b) <- tm.(a).(b)
        done
      done)
    tms;
  let pairs, _ = Traffic.commodities union in
  let demand_arrays =
    List.map (fun tm -> Array.map (fun (a, b) -> tm.(a).(b)) pairs) tms
  in
  let max_demands = Array.map (fun (a, b) -> union.(a).(b)) pairs in
  (pairs, demand_arrays, max_demands)

(* The base-load expression on link [e] for demand vector [demands]:
   either LP terms over the joint r variables, or a precomputed constant. *)
type base_load = Terms of (float array -> int -> (float * P.var) list) | Const of float array array
(* Const.(h).(e): per traffic matrix h, per link e *)

let status_error = function
  | P.Optimal s -> Ok s
  | P.Infeasible ->
    Error
      "R3 offline: LP infeasible - F failures can partition the network, or \
       the penalty envelope is too tight"
  | P.Unbounded -> Error "R3 offline: LP unbounded (internal error)"
  | P.Iteration_limit -> Error "R3 offline: simplex pivot budget exhausted"

let solve_or_error lp max_pivots = status_error (P.solve ?max_pivots lp)

let add_envelope_rows lp g (cfg : config) r_vars pairs demand_arrays =
  match cfg.envelope with
  | None -> ()
  | Some (beta, mlu_opt) ->
    List.iter
      (fun demands ->
        for e = 0 to G.num_links g - 1 do
          let terms = ref [] in
          Array.iteri
            (fun k row ->
              match row.(e) with
              | Some v when demands.(k) > 0.0 -> terms := (demands.(k), v) :: !terms
              | Some _ | None -> ())
            r_vars;
          if !terms <> [] then
            P.constr lp
              ~name:(Printf.sprintf "envelope_%d" e)
              !terms P.Le
              (beta *. mlu_opt *. G.capacity g e)
        done)
      demand_arrays;
    ignore pairs

let add_delay_rows lp g (cfg : config) r_vars pairs =
  match cfg.delay_envelope with
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
              | Some var when G.delay g e > 0.0 -> terms := (G.delay g e, var) :: !terms
              | Some _ | None -> ())
            r_vars.(k);
          if !terms <> [] then
            P.constr lp
              ~name:(Printf.sprintf "delay_%d" k)
              !terms P.Le (gamma *. best)
        end)
      pairs

(* Build the parts common to both methods: MLU variable, r variables (or
   fixed base loads), p variables with routing constraints. *)
let build_master lp g (cfg : config) base_spec pairs demand_arrays =
  Obs.T.with_span "offline.build" @@ fun () ->
  let mlu = P.var lp ~lb:0.0 "MLU" in
  let link_prs = Lp_build.link_pairs g in
  let p_vars = Lp_build.routing_vars lp g ~prefix:"p" ~pairs:link_prs in
  Lp_build.routing_constraints lp g ~pairs:link_prs p_vars;
  let r_vars, base_load =
    match base_spec with
    | Joint ->
      let r_vars = Lp_build.routing_vars lp g ~prefix:"r" ~pairs in
      Lp_build.routing_constraints lp g ~pairs r_vars;
      add_envelope_rows lp g cfg r_vars pairs demand_arrays;
      add_delay_rows lp g cfg r_vars pairs;
      let terms demands e =
        let acc = ref [] in
        Array.iteri
          (fun k row ->
            match row.(e) with
            | Some v when demands.(k) > 0.0 -> acc := (demands.(k), v) :: !acc
            | Some _ | None -> ())
          r_vars;
        !acc
      in
      (Some r_vars, Terms terms)
    | Fixed r ->
      if Routing.num_commodities r <> Array.length pairs then
        invalid_arg "Offline: fixed base routing commodities mismatch";
      let loads =
        List.map (fun demands -> Routing.loads g ~demands r) demand_arrays
      in
      (None, Const (Array.of_list loads))
  in
  P.minimize lp [ (1.0, mlu) ];
  Lp_build.add_loop_penalty lp cfg.loop_penalty p_vars;
  Lp_build.penalize_self_protection lp g cfg.loop_penalty p_vars;
  (match r_vars with
  | Some rv -> Lp_build.add_loop_penalty lp cfg.loop_penalty rv
  | None -> ());
  (mlu, p_vars, r_vars, base_load, link_prs)

(* Base-load contribution for matrix index [h] on link [e], as LP terms and
   a constant part. [demand_arrs] is indexed by matrix so the per-link
   loops stay O(1) per lookup. *)
let base_terms base_load (demand_arrs : float array array) h e =
  match base_load with
  | Terms f -> (f demand_arrs.(h) e, 0.0)
  | Const loads -> ([], loads.(h).(e))

let finish lp sol g pairs p_vars r_vars base_spec mlu_var =
  let protection =
    Lp_build.extract_routing sol g ~pairs:(Lp_build.link_pairs g) p_vars
  in
  let base =
    match (base_spec, r_vars) with
    | Fixed r, _ -> r
    | Joint, Some rv -> Lp_build.extract_routing sol g ~pairs rv
    | Joint, None -> assert false
  in
  let mlu = sol.P.value mlu_var in
  ignore lp;
  (base, protection, mlu)

(* ---- Method 1: full dualization, the paper's LP (7). ---- *)

let compute_dualized (cfg : config) g tms base_spec =
  let pairs, demand_arrays, max_demands = union_commodities g tms in
  let demand_arrs = Array.of_list demand_arrays in
  let lp = P.create ~name:"r3-offline-dual" () in
  let mlu, p_vars, r_vars, base_load, _ = build_master lp g cfg base_spec pairs demand_arrays in
  let m = G.num_links g in
  (* pi_e(l) exists exactly where p_l(e) exists; lambda_e always. *)
  let lambda = Array.init m (fun e -> P.var lp ~lb:0.0 (Printf.sprintf "lam%d" e)) in
  let pi = Array.make_matrix m m None in
  for e = 0 to m - 1 do
    for l = 0 to m - 1 do
      match p_vars.(l).(e) with
      | None -> ()
      | Some p_le ->
        let v = P.var lp ~lb:0.0 (Printf.sprintf "pi%d_%d" e l) in
        pi.(e).(l) <- Some v;
        (* (6): pi_e(l) + lambda_e >= c_l * p_l(e) *)
        P.constr lp
          ~name:(Printf.sprintf "dual%d_%d" e l)
          [ (1.0, v); (1.0, lambda.(e)); (-.G.capacity g l, p_le) ]
          P.Ge 0.0
    done
  done;
  (* Capacity rows per traffic matrix per link. *)
  for h = 0 to Array.length demand_arrs - 1 do
    for e = 0 to m - 1 do
      let terms, const = base_terms base_load demand_arrs h e in
      let virt = ref [ (float_of_int cfg.f, lambda.(e)) ] in
      for l = 0 to m - 1 do
        match pi.(e).(l) with
        | Some v -> virt := (1.0, v) :: !virt
        | None -> ()
      done;
      P.constr lp
        ~name:(Printf.sprintf "cap%d_%d" h e)
        (((-.G.capacity g e, mlu) :: terms) @ !virt)
        P.Le (-.const)
    done
  done;
  match
    Obs.T.with_span "offline.lp_solve" (fun () ->
        solve_or_error lp cfg.max_pivots)
  with
  | Error _ as e -> e
  | Ok sol ->
    let base, protection, mlu_val = finish lp sol g pairs p_vars r_vars base_spec mlu in
    Ok
      {
        graph = g;
        f = cfg.f;
        pairs;
        demands = max_demands;
        base;
        protection;
        mlu = mlu_val;
        lp_vars = P.num_vars lp;
        lp_rows = P.num_constraints lp;
        lp_pivots = sol.P.pivots;
      }

(* Knapsack audit of a finished routing (same formula as Verify, inlined
   here to avoid a dependency cycle). Embarrassingly parallel per link;
   the merge is a fold over the slot-ordered result array, so the value
   is independent of the domain count. *)
let audit_worst_mlu g ~f ~base_loads ~protection =
  Obs.T.with_span "offline.audit" @@ fun () ->
  let m = G.num_links g in
  let weights = Virtual_demand.weight_columns g protection in
  let utils =
    Parallel.init ~chunk:(Parallel.chunk_hint m) m (fun e ->
        let ml = Virtual_demand.worst_virtual_load ~f weights.(e) in
        (base_loads.(e) +. ml) /. G.capacity g e)
  in
  Array.fold_left Float.max 0.0 utils

(* ---- Method 2: constraint generation with the knapsack oracle. ---- *)

let compute_cg (cfg : config) g tms base_spec =
  let pairs, demand_arrays, max_demands = union_commodities g tms in
  let demand_arrs = Array.of_list demand_arrays in
  let nh = Array.length demand_arrs in
  let lp = P.create ~name:"r3-offline-cg" () in
  let mlu, p_vars, r_vars, base_load, link_prs = build_master lp g cfg base_spec pairs demand_arrays in
  let m = G.num_links g in
  (* Initial rows: no-failure load must fit within MLU * capacity. *)
  for h = 0 to nh - 1 do
    for e = 0 to m - 1 do
      let terms, const = base_terms base_load demand_arrs h e in
      if terms <> [] || const > 0.0 then
        P.constr lp
          ~name:(Printf.sprintf "cap0_%d_%d" h e)
          ((-.G.capacity g e, mlu) :: terms)
          P.Le (-.const)
    done
  done;
  (* Warm start: translate the LP once and repair the basis after each
     batch of cuts. *)
  let sess = P.session ?max_pivots:cfg.max_pivots lp in
  let solve_round () =
    Obs.T.with_span "offline.lp_solve" @@ fun () -> status_error (P.resolve sess)
  in
  let seen_cuts = Hashtbl.create 256 in
  let rec iterate round =
    (* On budget exhaustion the last solution is still a valid routing;
       report it with its audited (true) worst-case MLU. *)
    let budget_left = round <= cfg.cg_max_rounds in
    R3_util.Metrics.incr Obs.cg_rounds;
    begin
      match solve_round () with
      | Error _ as e -> e
      | Ok sol ->
        let p = Lp_build.extract_routing sol g ~pairs:link_prs p_vars in
        let mlu_val = sol.P.value mlu in
        let base_loads_h =
          match base_load with
          | Const loads -> loads
          | Terms _ ->
            (* joint: evaluate current r against each matrix *)
            let r =
              match r_vars with
              | Some rv -> Lp_build.extract_routing sol g ~pairs rv
              | None -> assert false
            in
            Array.init nh (fun h -> Routing.loads g ~demands:demand_arrs.(h) r)
        in
        (* Separation oracle: chunked (matrix, link) index ranges
           submitted to the persistent pool each round. Each task is
           independent and results come back in slot order, so the cuts
           added below appear in exactly the sequential (h, e) order. *)
        let oracle =
          Obs.T.with_span "offline.oracle" @@ fun () ->
          let weights = Virtual_demand.weight_columns g p in
          Parallel.init ~chunk:(Parallel.chunk_hint (nh * m)) (nh * m) (fun i ->
              let h = i / m and e = i mod m in
              let ml, set =
                Virtual_demand.worst_virtual_load_set ~f:cfg.f weights.(e)
              in
              (h, e, ml, set))
        in
        let violated = ref 0 in
        Array.iter
          (fun (h, e, ml, set) ->
            let cap = G.capacity g e in
            if base_loads_h.(h).(e) +. ml > ((mlu_val +. 1e-7) *. cap) +. 1e-7 then begin
              let key = (h, e, List.sort Int.compare set) in
              if not (Hashtbl.mem seen_cuts key) then begin
                Hashtbl.add seen_cuts key ();
                incr violated;
                let terms, const = base_terms base_load demand_arrs h e in
                let p_terms =
                  List.filter_map
                    (fun l ->
                      Option.map (fun v -> (G.capacity g l, v)) p_vars.(l).(e))
                    set
                in
                P.constr lp
                  ~name:(Printf.sprintf "cut%d_%d_%d" round h e)
                  (((-.cap, mlu) :: terms) @ p_terms)
                  P.Le (-.const)
              end
            end)
          oracle;
        R3_util.Metrics.add Obs.cg_cuts !violated;
        if !violated = 0 || not budget_left then begin
          Obs.T.add_attr "cg_rounds" (Obs.T.Int round);
          let base, protection, mlu_val = finish lp sol g pairs p_vars r_vars base_spec mlu in
          let mlu_val =
            if !violated = 0 then mlu_val
            else begin
              (* budget exhausted: audit the true worst case of this plan *)
              Array.fold_left
                (fun acc demands ->
                  let base_loads = Routing.loads g ~demands base in
                  Float.max acc
                    (audit_worst_mlu g ~f:cfg.f ~base_loads ~protection))
                0.0 demand_arrs
            end
          in
          Ok
            {
              graph = g;
              f = cfg.f;
              pairs;
              demands = max_demands;
              base;
              protection;
              mlu = mlu_val;
              lp_vars = P.num_vars lp;
              lp_rows = P.num_constraints lp;
              lp_pivots = P.session_pivots sess;
            }
        end
        else iterate (round + 1)
    end
  in
  iterate 1

let compute_multi (cfg : config) g tms base_spec =
  if cfg.f < 0 then invalid_arg "Offline: f must be nonnegative";
  if tms = [] then invalid_arg "Offline: need at least one traffic matrix";
  R3_util.Metrics.incr Obs.computes;
  Obs.M.time Obs.compute_seconds @@ fun () ->
  Obs.T.with_span "offline.compute"
    ~attrs:
      [
        ("f", Obs.T.Int cfg.f);
        ( "method",
          Obs.T.String
            (match cfg.solve_method with
            | Dualized -> "dualized"
            | Constraint_gen -> "cg") );
      ]
  @@ fun () ->
  match cfg.solve_method with
  | Dualized -> compute_dualized cfg g tms base_spec
  | Constraint_gen -> compute_cg cfg g tms base_spec

let compute cfg g tm base_spec = compute_multi cfg g [ tm ] base_spec
