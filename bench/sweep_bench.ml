(* Scenario-sweep benchmark: the prefix-sharing engine (Sweep.run) against
   the naive per-scenario path it replaces ([naive_curves] below, which
   rebuilds every R3 state from the pristine plan). The two must agree
   bit-for-bit under both metrics; the engine must be decisively faster.
   Results go to stdout and to BENCH_sweep.json so the perf trajectory is
   tracked in-repo.

   Run as:  dune exec bench/main.exe -- sweep
            dune exec bench/main.exe -- --smoke sweep   (tiny, no JSON) *)

module G = R3_net.Graph
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Offline = R3_core.Offline
module Eval = R3_sim.Eval
module Scenario = R3_sim.Scenario
module Scenarios = R3_sim.Scenarios
module Sweep = R3_sim.Sweep
module J = R3_util.Json
module H = Harness

let output_path = "BENCH_sweep.json"

(* Environment with both R3 plans over a fixed OSPF base; the offline
   solves are one-off setup, not part of the measurement. A plan's base
   is computed on a cache miss only. *)
let setup ~tag ~seed ~load g =
  let rng = R3_util.Prng.create seed in
  let tm = Traffic.gravity rng g ~load_factor:load () in
  let pairs, demands = Traffic.commodities tm in
  let weights = R3_net.Ospf.unit_weights g in
  let base = R3_net.Ospf.routing g ~weights ~pairs () in
  let structured key k base =
    let cfg = { (Offline.default_config ~f:k) with solve_method = Offline.Constraint_gen } in
    H.cached_plan key cfg (fun cfg ->
        R3_core.Structured.compute cfg g tm
          { R3_core.Structured.srlgs = R3_core.Structured.physical_srlgs g; mlgs = []; k }
          (Offline.Fixed (base ())))
  in
  let plan_exn = function Ok p -> p | Error e -> failwith ("sweep bench: " ^ e) in
  let ospf_r3 = plan_exn (structured (tag ^ "-sweep-ospf") 2 (fun () -> base)) in
  let mplsff_r3 =
    plan_exn
      (structured (tag ^ "-sweep-mplsff") 2 (fun () ->
           snd (R3_mcf.Concurrent_flow.min_mlu_routing g ~epsilon:0.04 ~pairs ~demands ())))
  in
  Eval.make_env g ~weights ~pairs ~demands ~ospf_r3 ~mplsff_r3 ()

let bits_equal (a : float array array) (b : float array array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Array.length x = Array.length y
         && Array.for_all2
              (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
              x y)
       a b

let check name ok = if not ok then failwith ("sweep bench: " ^ name ^ " MISMATCH")

(* The naive reference: one optimal MCF per scenario (for ratios) and one
   [Eval.scenario_bottleneck] per algorithm, each evaluated from scratch;
   per algorithm the defined values sorted ascending — what [Sweep.curves]
   must reproduce bit for bit. *)
let naive_curves env ~algorithms ~metric scenarios =
  let values = List.map (fun _ -> ref []) algorithms in
  List.iter
    (fun sc ->
      let opt = match metric with `Ratio -> Eval.optimal env sc | `Bottleneck -> 1.0 in
      List.iter2
        (fun alg acc ->
          let v = Eval.scenario_bottleneck env alg sc in
          let v =
            match metric with
            | `Ratio -> if opt > 0.0 then v /. opt else nan
            | `Bottleneck -> v
          in
          if not (Float.is_nan v) then acc := v :: !acc)
        algorithms values)
    scenarios;
  Array.of_list
    (List.map
       (fun acc ->
         let arr = Array.of_list !acc in
         Array.sort Float.compare arr;
         arr)
       values)

(* ---- headline: full enumeration, R3 algorithms, bottleneck metric ----

   The R3 rows are where the naive path pays per scenario (full plan
   rebuild + one full routing copy per directed failure); `Bottleneck
   keeps the (identical on both sides) MCF normalizer out of the
   comparison. *)
let headline_case ~repeats ~iters g env scenarios =
  let algorithms = Eval.[ Ospf_r3; Mplsff_r3 ] in
  let naive () = naive_curves env ~algorithms ~metric:`Bottleneck scenarios in
  let sweep () = Sweep.curves ~metric:`Bottleneck env ~algorithms scenarios in
  (* The pool size is process-wide: one-domain passes pin it and restore
     the current size, [n_domains], afterwards. *)
  let n_domains = R3_util.Parallel.domains () in
  let one_domain f =
    Fun.protect ~finally:(fun () -> R3_util.Parallel.set_domains n_domains) @@ fun () ->
    R3_util.Parallel.set_domains 1;
    f ()
  in
  check "headline curves" (bits_equal (naive ()) (one_domain sweep));
  check "domain count independence" (bits_equal (one_domain sweep) (sweep ()));
  (* Each measurement runs the whole pass [iters] times: one pass sits in
     the low-millisecond range, too close to timer noise on its own. *)
  let best f =
    R3_util.Timer.best_of ~repeats (fun () ->
        for _ = 1 to iters do
          ignore (f ())
        done)
    /. float_of_int iters
  in
  let t_naive = best naive in
  let t_sweep1 = one_domain (fun () -> best sweep) in
  let t_sweepn = best sweep in
  let speedup = t_naive /. Float.max t_sweep1 1e-9 in
  (* Observability cost: the same sweep pass with the metrics/trace layer
     recording vs disabled (acceptance bar: within 5%). *)
  let m_on, m_off, m_pct =
    one_domain (fun () ->
        H.metrics_overhead ~repeats (fun () ->
            for _ = 1 to iters do
              ignore (sweep ())
            done))
  in
  let per_iter t = t /. float_of_int iters in
  Printf.printf
    "  bottleneck sweep, %d scenarios x %d R3 algorithms (bit-identical):\n\
    \    naive %.4fs | sweep(1 domain) %.4fs | sweep(%d domains) %.4fs | speedup %.1fx\n\
    \    metrics overhead: on %.4fs | off %.4fs | %+.1f%%\n%!"
    (List.length scenarios) (List.length algorithms) t_naive t_sweep1 n_domains
    t_sweepn speedup (per_iter m_on) (per_iter m_off) m_pct;
  ignore g;
  J.Obj
    [
      ("scenarios", J.Int (List.length scenarios));
      ("algorithms", J.List (List.map (fun a -> J.String (Eval.algorithm_name a)) algorithms));
      ("metric", J.String "bottleneck");
      ("bit_identical", J.Bool true);
      ("naive_seconds", J.Float t_naive);
      ("sweep_seconds_1domain", J.Float t_sweep1);
      ("sweep_seconds_ndomain", J.Float t_sweepn);
      ("parallel_domains", J.Int n_domains);
      ("speedup_1domain", J.Float speedup);
      ("metrics_on_seconds", J.Float (per_iter m_on));
      ("metrics_off_seconds", J.Float (per_iter m_off));
      ("metrics_overhead_pct", J.Float m_pct);
    ]

(* ---- ratio metric: one MCF normalizer solve per scenario ---- *)
let ratio_case env scenarios =
  let algorithms = Eval.[ Ospf_r3; Ospf_opt ] in
  let naive, t_naive =
    R3_util.Timer.time (fun () -> naive_curves env ~algorithms ~metric:`Ratio scenarios)
  in
  let sweep, t_sweep = R3_util.Timer.time (fun () -> Sweep.curves env ~algorithms scenarios) in
  check "ratio curves" (bits_equal naive sweep);
  Printf.printf
    "  ratio sweep, %d scenarios (MCF normalizer): naive %.3fs | sweep %.3fs (bit-identical)\n%!"
    (List.length scenarios) t_naive t_sweep;
  J.Obj
    [
      ("scenarios", J.Int (List.length scenarios));
      ("metric", J.String "ratio");
      ("bit_identical", J.Bool true);
      ("naive_seconds", J.Float t_naive);
      ("sweep_seconds", J.Float t_sweep);
    ]

(* ---- executor counters ----

   The persistent pool's lifetime counters after the cases above, for
   the executor trajectory (json_check asserts they are present and
   non-negative). *)
let pool_stats () =
  let s = R3_util.Pool.stats () in
  J.Obj
    [
      ("workers", J.Int s.R3_util.Pool.workers);
      ("tasks", J.Int s.R3_util.Pool.tasks);
      ("steals", J.Int s.R3_util.Pool.steals);
      ("parks", J.Int s.R3_util.Pool.parks);
      ("max_queue_depth", J.Int s.R3_util.Pool.max_queue_depth);
      ("resizes", J.Int s.R3_util.Pool.resizes);
    ]

let run () =
  H.section "Scenario sweep: prefix-sharing engine vs naive per-scenario path";
  if !H.smoke then begin
    (* Tiny end-to-end pass for @bench-check: correctness checks only. *)
    let g = Topology.triangle () in
    let env = setup ~tag:"triangle" ~seed:7 ~load:0.3 g in
    let scenarios = Scenarios.enumerate g ~k:1 in
    ignore (headline_case ~repeats:1 ~iters:1 g env scenarios);
    ignore (ratio_case env scenarios);
    (* The instrumented hot paths must have recorded something by now:
       catches a metrics layer that silently stopped counting. *)
    let module M = R3_util.Metrics in
    check "metrics: lp pivots recorded" (M.counter_value "lp.pivots" > 0);
    check "metrics: mcf runs recorded" (M.counter_value "mcf.runs" > 0);
    check "metrics: sweep scenarios recorded" (M.counter_value "sweep.scenarios" > 0);
    check "metrics: re-enabled after overhead run" (M.enabled () && R3_util.Trace.enabled ());
    H.note "smoke mode: no %s written" output_path
  end
  else begin
    let g = Topology.abilene () in
    let env = setup ~tag:"abilene" ~seed:7 ~load:0.3 g in
    (* The paper's enumeration unit: every single and double physical
       failure. *)
    let scenarios = Scenarios.enumerate g ~k:1 @ Scenarios.enumerate g ~k:2 in
    let headline = headline_case ~repeats:3 ~iters:10 g env scenarios in
    let ratio = ratio_case env (Scenarios.enumerate g ~k:1) in
    let pool = pool_stats () in
    let doc =
      J.Obj
        [
          ("bench", J.String "sweep");
          ("topology", J.String "abilene");
          ("nodes", J.Int (G.num_nodes g));
          ("links", J.Int (G.num_links g));
          ("headline", headline);
          ("ratio", ratio);
          ("pool", pool);
          (* Last: the counters the cases above accumulated. *)
          H.metrics_section ();
        ]
    in
    J.write_file output_path doc;
    H.note "wrote %s" output_path
  end
