module P = R3_lp.Problem
module Flow_lp = R3_mcf.Flow_lp
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
  let budget_exhausted = M.counter "offline.cg.budget_exhausted"
  let compute_seconds = M.histogram "offline.compute.seconds"
end

type base_spec = Joint | Fixed of Routing.t

type method_ = Dualized | Constraint_gen

type config = {
  f : int;
  envelope : (float * float) option;
  delay_envelope : float option;
  solve_method : method_;
  max_pivots : int option;
  cg_max_rounds : int;
}

let default_config ~f =
  {
    f;
    envelope = None;
    delay_envelope = None;
    solve_method = Dualized;
    max_pivots = None;
    cg_max_rounds = 60;
  }

(* The small objective weight on routing terms that breaks ties among
   optima toward loop-free, non-self-protecting routings. *)
let loop_penalty = 1e-6

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

(* The base load on a link: LP terms over the joint r variables, or the
   fixed r and its precomputed loads, per traffic matrix h, per link e. *)
type base_load = Terms of Flow_lp.t | Const of Routing.t * float array array

let status_error = function
  | P.Optimal s -> Ok s
  | P.Infeasible ->
    Error
      "R3 offline: LP infeasible - F failures can partition the network, or \
       the penalty envelope is too tight"
  | P.Unbounded -> Error "R3 offline: LP unbounded (internal error)"
  | P.Iteration_limit -> Error "R3 offline: simplex pivot budget exhausted"

let add_envelope_rows lp g (cfg : config) r_vars demand_arrays =
  match cfg.envelope with
  | None -> ()
  | Some (beta, mlu_opt) ->
    List.iter
      (fun demands ->
        for e = 0 to G.num_links g - 1 do
          let terms = Flow_lp.load_terms r_vars demands e in
          if terms <> [] then
            P.constr lp terms P.Le (beta *. mlu_opt *. G.capacity g e)
        done)
      demand_arrays

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
          if !terms <> [] then P.constr lp !terms P.Le (gamma *. best)
        end)
      pairs

(* Extra penalty on each protection commodity's {e self} term [p_l(l)].
   Routing a link's virtual demand over itself is the cheapest way to
   satisfy the constraints when the MLU cannot be driven below 1, but it
   means dropping the link's traffic on failure; pricing the self term
   above any multi-hop detour makes the LP choose real detours whenever
   they exist, without affecting feasibility or the optimal MLU. *)
let penalize_self_protection lp g p_vars =
  let weight = loop_penalty *. float_of_int (4 * G.num_nodes g) in
  Array.iteri (fun l row -> Option.iter (P.add_objective_term lp weight) row.(l)) p_vars

(* Tie-break the protection routing toward spread-out virtual loads: add
   [50 * loop_penalty * c_l / c_e] to each [p_l(e)] term. Among the many
   optima of the worst-case LP this prefers solutions whose per-event
   rerouted load is balanced — the behaviour the paper reports
   (near-optimal for individual scenarios, not just the envelope max). *)
let penalize_virtual_concentration lp g p_vars =
  let weight = 50.0 *. loop_penalty in
  Array.iteri
    (fun l row ->
      Array.iteri
        (fun e v ->
          Option.iter
            (P.add_objective_term lp (weight *. G.capacity g l /. G.capacity g e))
            v)
        row)
    p_vars

(* Build the parts common to both methods: MLU variable, r variables (or
   fixed base loads), p variables with routing constraints. [spread] adds
   the {!penalize_virtual_concentration} tie-break. *)
let build_master ?(spread = false) lp g (cfg : config) base_spec pairs demand_arrays =
  Obs.T.with_span "offline.build" @@ fun () ->
  let mlu = P.var lp in
  let no_failures = G.no_failures g in
  let p_vars = Flow_lp.add lp g ~failed:no_failures ~pairs:(Flow_lp.link_pairs g) in
  let base_load =
    match base_spec with
    | Joint ->
      let r_vars = Flow_lp.add lp g ~failed:no_failures ~pairs in
      add_envelope_rows lp g cfg r_vars demand_arrays;
      add_delay_rows lp g cfg r_vars pairs;
      Terms r_vars
    | Fixed r ->
      if Routing.num_commodities r <> Array.length pairs then
        invalid_arg "Offline: fixed base routing commodities mismatch";
      Const (r, Array.of_list (List.map (fun demands -> Routing.loads g ~demands r) demand_arrays))
  in
  P.minimize lp [ (1.0, mlu) ];
  Flow_lp.add_penalty lp loop_penalty p_vars;
  penalize_self_protection lp g p_vars;
  if spread then penalize_virtual_concentration lp g p_vars;
  (match base_load with
  | Terms r_vars -> Flow_lp.add_penalty lp loop_penalty r_vars
  | Const _ -> ());
  (mlu, p_vars, base_load)

(* Base-load contribution for matrix index [h] on link [e], as LP terms and
   a constant part. [demand_arrs] is indexed by matrix so the per-link
   loops stay O(1) per lookup. *)
let base_terms base_load (demand_arrs : float array array) h e =
  match base_load with
  | Terms r_vars -> (Flow_lp.load_terms r_vars demand_arrs.(h) e, 0.0)
  | Const (_, loads) -> ([], loads.(h).(e))

(* The solved routings: the base (given, or the joint r) and p. *)
let extract sol g pairs base_load p_vars =
  let base =
    match base_load with
    | Const (r, _) -> r
    | Terms r_vars -> Flow_lp.routing sol g ~pairs r_vars
  in
  (base, Flow_lp.routing sol g ~pairs:(Flow_lp.link_pairs g) p_vars)

let instrumented ~f ~method_ k =
  Obs.M.incr Obs.computes;
  Obs.M.time Obs.compute_seconds @@ fun () ->
  Obs.T.with_span "offline.compute"
    ~attrs:[ ("f", Obs.T.Int f); ("method", Obs.T.String method_) ]
    k

(* ---- Method 1: full dualization, the paper's LP (7). ---- *)

let compute_dualized (cfg : config) g tms base_spec =
  let pairs, demand_arrays, max_demands = union_commodities g tms in
  let demand_arrs = Array.of_list demand_arrays in
  let lp = P.create () in
  let mlu, p_vars, base_load = build_master lp g cfg base_spec pairs demand_arrays in
  let m = G.num_links g in
  (* pi_e(l) exists exactly where p_l(e) exists; lambda_e always. *)
  let lambda = Array.init m (fun _ -> P.var lp) in
  let pi = Array.make_matrix m m None in
  for e = 0 to m - 1 do
    for l = 0 to m - 1 do
      match p_vars.(l).(e) with
      | None -> ()
      | Some p_le ->
        let v = P.var lp in
        pi.(e).(l) <- Some v;
        (* (6): pi_e(l) + lambda_e >= c_l * p_l(e) *)
        P.constr lp [ (1.0, v); (1.0, lambda.(e)); (-.G.capacity g l, p_le) ] P.Ge 0.0
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
      P.constr lp (((-.G.capacity g e, mlu) :: terms) @ !virt) P.Le (-.const)
    done
  done;
  match
    Obs.T.with_span "offline.lp_solve" (fun () ->
        status_error (P.solve ?max_pivots:cfg.max_pivots lp))
  with
  | Error _ as e -> e
  | Ok sol ->
    let base, protection = extract sol g pairs base_load p_vars in
    Ok
      {
        graph = g;
        f = cfg.f;
        pairs;
        demands = max_demands;
        base;
        protection;
        mlu = sol.P.value mlu;
        lp_vars = P.num_vars lp;
        lp_rows = P.num_constraints lp;
        lp_pivots = sol.P.pivots;
      }

(* ---- Method 2: constraint generation, one loop for every envelope. ---- *)

(* The cut's identity, for deduplication: its (class, link) and the
   support of its intensities quantized at 1e-3. *)
let cut_key c e support =
  ( c,
    e,
    List.filter_map
      (fun (l, y) ->
        match int_of_float (Float.round (y *. 1000.0)) with
        | 0 -> None
        | q -> Some (l, q))
      support )

let compute_classes ?spread (cfg : config) g classes base_spec =
  if classes = [] then invalid_arg "Offline.compute_classes: no classes";
  let envs = Array.of_list (List.map snd classes) in
  let f = Array.fold_left (fun acc env -> Int.max acc (Virtual_demand.budget env)) 0 envs in
  instrumented ~f ~method_:"cg" @@ fun () ->
  let pairs, demand_arrays, max_demands = union_commodities g (List.map fst classes) in
  let demand_arrs = Array.of_list demand_arrays in
  let nc = Array.length envs and m = G.num_links g in
  let lp = P.create () in
  let mlu, p_vars, base_load = build_master ?spread lp g cfg base_spec pairs demand_arrays in
  (* Initial rows: each class's no-failure load fits within MLU * capacity. *)
  for c = 0 to nc - 1 do
    for e = 0 to m - 1 do
      let terms, const = base_terms base_load demand_arrs c e in
      if terms <> [] || const > 0.0 then
        P.constr lp ((-.G.capacity g e, mlu) :: terms) P.Le (-.const)
    done
  done;
  (* Warm start: solve the LP once and repair the basis after each
     batch of cuts. *)
  let sess = P.session ?max_pivots:cfg.max_pivots lp in
  let seen = Hashtbl.create 256 in
  let rec iterate round =
    let budget_left = round <= cfg.cg_max_rounds in
    Obs.M.incr Obs.cg_rounds;
    match
      Obs.T.with_span "offline.lp_solve" (fun () -> status_error (P.resolve sess))
    with
    | Error _ as e -> e
    | Ok sol ->
      let base, protection = extract sol g pairs base_load p_vars in
      let mlu_val = sol.P.value mlu in
      let base_loads =
        match base_load with
        | Const (_, loads) -> loads
        | Terms _ -> Array.map (fun demands -> Routing.loads g ~demands base) demand_arrs
      in
      (* Separation oracle: one pool batch of (class, link) indices each
         round. Each task is independent and results come back in slot
         order, so the cuts added below appear in exactly the sequential
         (class, link) order. *)
      let oracle =
        Obs.T.with_span "offline.oracle" @@ fun () ->
        let weights = Virtual_demand.weight_columns g protection in
        Parallel.init (nc * m) (fun i ->
            Virtual_demand.worst_load envs.(i / m) weights.(i mod m))
      in
      let violated = ref 0 in
      Array.iteri
        (fun i (value, support) ->
          let c = i / m and e = i mod m in
          let cap = G.capacity g e in
          if base_loads.(c).(e) +. value > ((mlu_val +. 1e-7) *. cap) +. 1e-7 then begin
            let key = cut_key c e support in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              incr violated;
              (* sum_l y_l c_l p_l(e) *)
              let p_terms =
                List.filter_map
                  (fun (l, y) ->
                    if y > 1e-9 then
                      Option.map (fun v -> (y *. G.capacity g l, v)) p_vars.(l).(e)
                    else None)
                  support
              in
              let terms, const = base_terms base_load demand_arrs c e in
              P.constr lp (((-.cap, mlu) :: terms) @ p_terms) P.Le (-.const)
            end
          end)
        oracle;
      Obs.M.add Obs.cg_cuts !violated;
      if !violated > 0 && budget_left then iterate (round + 1)
      else begin
        Obs.T.add_attr "cg_rounds" (Obs.T.Int round);
        let mlu_val =
          if !violated = 0 then mlu_val
          else begin
            (* Cut budget exhausted: the last solution is still a valid
               routing, but its LP value understates the worst case;
               report the audited one. *)
            Obs.M.incr Obs.budget_exhausted;
            Obs.T.with_span "offline.audit" @@ fun () ->
            let worst = ref 0.0 in
            Array.iteri
              (fun c env ->
                worst :=
                  Float.max !worst
                    (Virtual_demand.worst_mlu g env ~base_loads:base_loads.(c) ~protection))
              envs;
            !worst
          end
        in
        Ok
          {
            graph = g;
            f;
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
  in
  iterate 1

let compute_multi (cfg : config) g tms base_spec =
  if cfg.f < 0 then invalid_arg "Offline: f must be nonnegative";
  if tms = [] then invalid_arg "Offline: need at least one traffic matrix";
  match cfg.solve_method with
  | Dualized ->
    instrumented ~f:cfg.f ~method_:"dualized" (fun () ->
        compute_dualized cfg g tms base_spec)
  | Constraint_gen ->
    compute_classes cfg g
      (List.map (fun tm -> (tm, Virtual_demand.Links cfg.f)) tms)
      base_spec

let compute cfg g tm base_spec = compute_multi cfg g [ tm ] base_spec
