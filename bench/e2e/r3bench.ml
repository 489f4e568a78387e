(* r3bench: the repository's end-to-end benchmark.

   One invocation runs one workload in one process:

     r3bench --workload NAME --seed N --seconds S --trace 0|1 [--benchmark BENCHMARK.json]
     r3bench --smoke [--benchmark BENCHMARK.json]
     r3bench compare PARENT.json... -- CHANGE.json... [--benchmark BENCHMARK.json]

   A run sets up the workload several times (the median is setup_s), runs
   one warm-up iteration, then measures iterations with Metrics and Trace
   off for at least S seconds (the median is run_s), and checks the
   outputs outside the timed region. Every timed call follows a
   reference kernel and its time is normalized by the kernel's
   (Measure.timed). With --trace 1 it then runs the traced whole pass
   (set-up plus one iteration with Metrics and Trace on), the next
   iteration on the pool, and the one-domain layers pass, and prints the
   per-layer metrics instead of the end-to-end ones. The metric names
   and units are the ones BENCHMARK.json declares. The last line of
   standard output is the result object; the line before it carries the
   run's details: all samples, the checks and a fingerprint of the
   inputs. *)

module J = R3_util.Json
module Stats = R3_util.Stats
module W = Workloads
module Spans = Measure.Spans
module Metrics = R3_util.Metrics
module Trace = R3_util.Trace
module Pool = R3_util.Pool
module Parallel = R3_util.Parallel

(* Timed passes run on a pool of one domain. On a shared 2-vCPU host, two
   domains spread run_s 8-21% across ten seeds (IQR / median; 4-16% even
   for each run's fastest iteration), against a bound of at most 15%.
   The traced run repeats one iteration at [parallel_domains] (two where
   the host offers two, never more) to measure the pool. *)
let parallel_domains () = Int.min 2 (Domain.recommended_domain_count ())

type plan = {
  size : W.size;
  setups : int;  (** set-ups at least; more while they are quick *)
  warmup : bool;
  min_iterations : int;
  seconds : float;
  trace : bool;
}

type outcome = {
  e2e : (string * float) list;
  layers : (string * float) list;  (** empty unless traced *)
  attempted : int;
  failed : int;
  dropped : int;
  detail : (string * J.t) list;
}

let quiet () =
  Metrics.set_enabled false;
  Trace.set_enabled false

(* Repeat set-up [plan.setups] times and, when that is more than once,
   also while the repeats so far took under four seconds (at most 51):
   cheap set-ups need more samples for a steady median. Returns the last
   instance and every sample. *)
let repeated_setup plan build =
  let rec go acc spent =
    let inst, (s : Measure.sample) = Measure.timed build in
    let acc = s :: acc in
    let spent = spent +. s.wall +. s.kernel in
    let n = List.length acc in
    if n < plan.setups || (plan.setups > 1 && spent < 4.0 && n < 51) then go acc spent
    else (inst, Array.of_list (List.rev acc))
  in
  go [] 0.0

(* One warm-up iteration, then timed ones until [plan.seconds] have
   passed and at least [plan.min_iterations] ran. Returns the samples
   and the operations attempted and failed, warm-up included. *)
let measure plan (inst : W.t) =
  let attempted = ref 0 and failed = ref 0 in
  let count (a, f) =
    attempted := !attempted + a;
    failed := !failed + f
  in
  if plan.warmup then count (inst.W.iterate ());
  let samples = ref [] in
  let t0 = Measure.now () in
  while
    List.length !samples < plan.min_iterations || Measure.now () -. t0 < plan.seconds
  do
    let ops, s = Measure.timed inst.W.iterate in
    count ops;
    samples := s :: !samples
  done;
  (Array.of_list (List.rev !samples), !attempted, !failed)

(* Per-layer metrics. [whole] is the traced whole pass (set-up plus one
   iteration taking [t_iter]); [t_par] and [pool0]/[pool1] bracket the
   same iteration at [dp] domains; [spans]/[layers_wall] are the layers
   pass. [t_iter] and [t_par] are normalized, like [run_s]. *)
let layer_metrics ~run_s ~(whole : W.t) ~t_iter ~dp ~t_par ~pool0 ~pool1 ~counters ~span_total
    ~reconfig_counters ~spans ~layers_wall ~(verdict : W.verdict) =
  let c name = float_of_int (List.assoc name counters) in
  let setup name = Option.value (List.assoc_opt name whole.W.setup_layers) ~default:0.0 in
  let us_p p name = 1e6 *. Measure.percentile p (Spans.samples spans name) in
  let mw names = List.fold_left (fun a n -> a +. Spans.alloc spans n) 0.0 names /. 1e6 in
  let pivots = c "lp.pivots" in
  let solve = span_total "lp.rev.solve" and resolve = span_total "lp.rev.resolve" in
  let offline_spans = List.map (fun n -> "offline.s." ^ n) W.table2_instance_names in
  let mcf = Spans.samples spans "mcf.solve" in
  let cow, refolds = reconfig_counters in
  [
    ("lp.solve_s", solve +. resolve);
    ("lp.cold_s", solve);
    ("lp.resolve_s", resolve);
    ("lp.pivots", pivots);
    ("lp.degenerate_frac", c "lp.degenerate_pivots" /. Float.max 1.0 pivots);
    ("lp.refactorizations", c "lp.rev.refactorizations");
    ("lp.fallbacks", c "lp.rev.fallbacks");
  ]
  @ List.map (fun n -> (n, Spans.total spans n)) offline_spans
  @ [
      ("offline.oracle_s", span_total "offline.oracle");
      ( "offline.other_s",
        Float.max 0.0
          (span_total "offline.compute" -. span_total "offline.lp_solve"
         -. span_total "offline.oracle") );
      ("offline.cg_rounds", c "offline.cg.rounds");
      ("offline.cg_cuts", c "offline.cg.cuts");
      ("offline.alloc_mw", mw offline_spans);
      ("offline.setup_s", setup "offline.setup_s");
      ("te.igp_opt_s", setup "te.igp_opt_s");
      ("plan_store.save_s", setup "plan_store.save_s");
      ("plan_store.load_s", setup "plan_store.load_s");
      ("plan_store.bytes", setup "plan_store.bytes");
      ("mcf.solve_s", Spans.total spans "mcf.solve");
      ("mcf.solves", float_of_int (Spans.count spans "mcf.solve"));
      ("mcf.solve_p50_ms", 1e3 *. Measure.percentile 50.0 mcf);
      ("mcf.solve_max_ms", 1e3 *. Measure.percentile 100.0 mcf);
      ("mcf.phases", c "mcf.phases");
      ("mcf.iterations", c "mcf.iterations");
      ("mcf.alloc_mw", mw [ "mcf.solve" ]);
    ]
  @ List.map
      (fun b -> (Printf.sprintf "baselines.%s_s" b, Spans.total spans ("baselines." ^ b)))
      [ "ospf_recon"; "cspf_detour"; "fcp"; "path_splice"; "ospf_opt" ]
  @ List.concat_map
      (fun op ->
        let n = "reconfig." ^ op in
        [
          (n ^ "_s", Spans.total spans n);
          (n ^ "_calls", float_of_int (Spans.count spans n));
          (n ^ "_p50_us", us_p 50.0 n);
          (n ^ "_p99_us", us_p 99.0 n);
        ])
      [ "fail"; "recover" ]
  @ [
      ("reconfig.cow_shared_ratio", cow);
      ("reconfig.recovery_refolds", refolds);
      ("reconfig.alloc_mw", mw [ "reconfig.fail"; "reconfig.recover" ]);
      ("routing.mlu_s", Spans.total spans "routing.mlu");
      ("routing.mlu_calls", float_of_int (Spans.count spans "routing.mlu"));
      ("routing.mlu_p50_us", us_p 50.0 "routing.mlu");
      ("mplsff.fib_update_s", Spans.total spans "mplsff.fib_update");
      ("mplsff.fib_update_calls", float_of_int (Spans.count spans "mplsff.fib_update"));
      ("sweep.scenarios", c "sweep.scenarios");
      ("sweep.tree_nodes", c "sweep.tree_nodes");
      ("sweep.cow_steps", c "sweep.cow_steps");
      (* Speed-up of the iteration at [dp] domains over run_s, per domain. *)
      ("sweep.parallel_eff", run_s /. (t_par *. float_of_int dp));
      ("pool.tasks", float_of_int (pool1.Pool.tasks - pool0.Pool.tasks));
      ("pool.steals", float_of_int (pool1.Pool.steals - pool0.Pool.steals));
      ("pool.parks", float_of_int (pool1.Pool.parks - pool0.Pool.parks));
      ("pool.max_queue_depth", float_of_int pool1.Pool.max_queue_depth);
      ("online.run_s", span_total "online.run");
    ]
  (* Output metrics a workload does not produce (online.* off the online
     workload) read 0, like every other layer a workload does not use. *)
  @ List.map
      (fun n -> (n, Option.value (List.assoc_opt n verdict.W.outputs) ~default:0.0))
      W.output_names
  @ [
      ("trace.coverage", Spans.covered spans /. layers_wall);
      ("trace.overhead_frac", (t_iter /. run_s) -. 1.0);
      ("trace.dropped_spans", float_of_int (Trace.dropped ()));
    ]

let counter_names =
  [
    "lp.pivots"; "lp.degenerate_pivots"; "lp.rev.refactorizations"; "lp.rev.fallbacks";
    "offline.cg.rounds"; "offline.cg.cuts"; "mcf.phases"; "mcf.iterations"; "sweep.scenarios";
    "sweep.tree_nodes"; "sweep.cow_steps";
  ]

let run_workload plan ~name ~seed =
  let build () = (List.assoc name W.all) plan.size ~seed in
  let dp = parallel_domains () in
  Parallel.set_domains 1;
  quiet ();
  let inst, setup_samples = repeated_setup plan build in
  let run_samples, run_ops, failed_ops = measure plan inst in
  let normalized a = Array.map Measure.normalized a in
  let run_s = Stats.median (normalized run_samples) in
  let rss = Measure.peak_rss_mb () in
  let checked, verdict, extra_ops, extra_failed, layers =
    if not plan.trace then begin
      if inst.W.checks_need_layers then inst.W.layers (Spans.create ());
      (inst, inst.W.check (), 0, 0, [])
    end
    else begin
      (* Whole pass: set-up plus one iteration, everything recorded. *)
      Metrics.reset ();
      Trace.set_capacity (1 lsl 16);
      Metrics.set_enabled true;
      Trace.set_enabled true;
      let whole = build () in
      let (a, f), s_iter = Measure.timed whole.W.iterate in
      quiet ();
      let counters = List.map (fun n -> (n, Metrics.counter_value n)) counter_names in
      let summary = Trace.summary () in
      let span_total n =
        List.fold_left (fun acc (m, _, t) -> if m = n then acc +. t else acc) 0.0 summary
      in
      (* Parallel pass: the same iteration on the pool; the layers pass
         below then checks that its outputs match the one-domain ones. *)
      Parallel.set_domains dp;
      let pool0 = Pool.stats () in
      let (a_par, f_par), s_par = Measure.timed whole.W.iterate in
      let pool1 = Pool.stats () in
      (* Layers pass: one domain, bench-side spans, Metrics on for the
         reconfiguration counters only this pass exercises. *)
      Parallel.set_domains 1;
      Metrics.reset ();
      Metrics.set_enabled true;
      let spans = Spans.create () in
      Gc.full_major ();
      let (), layers_wall = Measure.time (fun () -> whole.W.layers spans) in
      quiet ();
      let reconfig_counters =
        ( Option.value ~default:0.0
            (Metrics.gauge_value (Metrics.gauge "r3.reconfig.cow_shared_ratio")),
          float_of_int (Metrics.counter_value "r3.reconfig.recovery_refolds") )
      in
      let verdict = whole.W.check () in
      let layers =
        layer_metrics ~run_s ~whole ~t_iter:(Measure.normalized s_iter) ~dp
          ~t_par:(Measure.normalized s_par) ~pool0 ~pool1 ~counters ~span_total
          ~reconfig_counters ~spans ~layers_wall ~verdict
      in
      (whole, verdict, a + a_par, f + f_par, layers)
    end
  in
  let failed_checks = List.filter (fun (_, ok) -> not ok) verdict.W.checks in
  let attempted = run_ops + extra_ops + List.length verdict.W.checks in
  let failed = failed_ops + extra_failed + List.length failed_checks in
  let inputs = J.Obj (checked.W.inputs ()) in
  let q1, q3 =
    match Stats.quantiles ~ps:[ 25.0; 75.0 ] (normalized run_samples) with
    | [ q1; q3 ] -> (q1, q3)
    | _ -> assert false
  in
  let floats a = J.List (Array.to_list (Array.map (fun x -> J.Float x) a)) in
  let walls a = floats (Array.map (fun (s : Measure.sample) -> s.wall) a) in
  let kernels a = floats (Array.map (fun (s : Measure.sample) -> s.kernel) a) in
  {
    e2e =
      [
        ("run_s", run_s);
        ("setup_s", Stats.median (normalized setup_samples));
        ("peak_rss_mb", rss);
        ("plan_mlu_sum", verdict.W.plan_mlu_sum);
        ("r3_bottleneck_mean", verdict.W.r3_bottleneck_mean);
      ];
    layers;
    attempted;
    failed;
    dropped = Trace.dropped ();
    detail =
      [
        ("workload", J.String name);
        ("seed", J.Int seed);
        ("trace", J.Bool plan.trace);
        ("domains", J.Int 1);
        ("parallel_domains", J.Int dp);
        ("seconds", J.Float plan.seconds);
        ("reference_s", J.Float Measure.reference_s);
        ("setup_samples", floats (normalized setup_samples));
        ("setup_walls", walls setup_samples);
        ("setup_kernels", kernels setup_samples);
        ("run_samples", floats (normalized run_samples));
        ("run_walls", walls run_samples);
        ("run_kernels", kernels run_samples);
        ("run_s_q1", J.Float q1);
        ("run_s_q3", J.Float q3);
        ("checks", J.Obj (List.map (fun (n, ok) -> (n, J.Bool ok)) verdict.W.checks));
        ("inputs", inputs);
        ("inputs_digest", J.String (Digest.to_hex (Digest.string (J.to_string inputs))));
      ];
  }

(* ---- the metrics BENCHMARK.json declares ---- *)

let field k = function J.Obj f -> List.assoc_opt k f | _ -> None

(* [(name, unit)] of every entry of BENCHMARK.json's [key] list. *)
let declared bench key =
  match field key bench with
  | Some (J.List items) ->
    List.filter_map
      (fun m ->
        match (field "name" m, field "unit" m) with
        | Some (J.String n), Some (J.String u) -> Some (n, u)
        | Some (J.String n), None -> Some (n, "")
        | _ -> None)
      items
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

let metric_set bench ~trace (o : outcome) =
  if trace then (declared bench "per_layer", o.layers) else (declared bench "end_to_end", o.e2e)

let value values name = Option.value (List.assoc_opt name values) ~default:nan

let print_result bench ~trace (o : outcome) =
  let table, values = metric_set bench ~trace o in
  let finite = List.for_all (fun (n, _) -> Float.is_finite (value values n)) table in
  print_endline (J.to_string (J.Obj [ ("r3bench", J.Obj o.detail) ]));
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (o.failed = 0 && finite));
            ("attempted", J.Int o.attempted);
            ("failed", J.Int o.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, unit) ->
                     (n, J.Obj [ ("value", J.Float (value values n)); ("unit", J.String unit) ]))
                   table) );
          ]))

(* ---- smoke: every workload at Abilene size, both metric sets ---- *)

let metric_name_ok n =
  n <> ""
  && String.for_all
       (fun ch ->
         match ch with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n

let smoke bench =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let workloads = List.map fst (declared bench "workloads") in
  if List.sort compare workloads <> List.sort compare W.names then
    problem "BENCHMARK.json workloads %s differ from r3bench's %s" (String.concat "," workloads)
      (String.concat "," W.names);
  let plan =
    { size = W.Smoke; setups = 1; warmup = false; min_iterations = 1; seconds = 0.0; trace = true }
  in
  List.iter
    (fun name ->
      let (o : outcome), dt = Measure.time (fun () -> run_workload plan ~name ~seed:1) in
      List.iter
        (fun trace ->
          let table, values = metric_set bench ~trace o in
          List.iter
            (fun (n, _) ->
              if not (metric_name_ok n) then problem "bad metric name %S" n
              else if not (Float.is_finite (value values n)) then
                problem "%s: %s is missing or not finite" name n)
            table)
        [ false; true ];
      if o.failed <> 0 then problem "%s: %d of %d operations failed" name o.failed o.attempted;
      if o.dropped <> 0 then problem "%s: %d spans dropped" name o.dropped;
      Printf.printf "smoke %-15s %5.2fs  attempted %d  failed %d\n%!" name dt o.attempted o.failed)
    W.names;
  match !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
    List.iter (fun p -> Printf.eprintf "smoke: %s\n" p) (List.rev ps);
    exit 1

(* ---- command line ---- *)

let usage () =
  Printf.eprintf
    "usage: r3bench --workload {%s} --seed N --seconds S --trace 0|1 [--benchmark BENCHMARK.json]\n\
    \       r3bench --smoke [--benchmark BENCHMARK.json]\n\
    \       r3bench compare PARENT.json... -- CHANGE.json... [--benchmark BENCHMARK.json]\n"
    (String.concat "|" W.names);
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "compare" :: rest -> exit (Compare.main rest)
  | args ->
    let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
    let smoke_mode = ref false and benchmark = ref "BENCHMARK.json" in
    let rec parse = function
      | [] -> ()
      | "--workload" :: v :: rest -> workload := Some v; parse rest
      | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
      | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
      | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
      | "--smoke" :: rest -> smoke_mode := true; parse rest
      | "--benchmark" :: v :: rest -> benchmark := v; parse rest
      | a :: _ -> Printf.eprintf "r3bench: unexpected argument %S\n" a; usage ()
    in
    parse args;
    if !smoke_mode then smoke (J.read_file !benchmark)
    else begin
      match (!workload, !seed, !seconds, !trace) with
      | Some name, Some seed, Some seconds, Some trace when List.mem name W.names && seconds >= 0.0 ->
        let bench = J.read_file !benchmark in
        let setups = if trace then 1 else 3 in
        let plan = { size = W.Full; setups; warmup = true; min_iterations = 3; seconds; trace } in
        print_result bench ~trace (run_workload plan ~name ~seed)
      | _ -> usage ()
    end
