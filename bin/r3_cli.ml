(* r3: command-line front end for the R3 library.

   Subcommands:
     topologies  - list the built-in topology catalog
     precompute  - run the offline phase and save/inspect a plan
     evaluate    - apply a failure scenario to a saved plan
     compare     - R3 vs the baselines on sampled scenarios
     sweep       - bulk scenario sweep (prefix-sharing engine)
     profile     - end-to-end instrumented run, metrics JSON out
     online      - event-driven online reconfiguration run
     plan        - plan snapshot utilities (inspect)
     storage     - Table-3-style router storage report
     fuzz        - seeded differential fuzzing / corpus replay *)

module G = R3_net.Graph
module Traffic = R3_net.Traffic
module Topology = R3_net.Topology
module Offline = R3_core.Offline

open Cmdliner

(* Bad input exits 2 with a message on stderr, never an uncaught
   exception (exit 125) or a run on an empty workload. *)
let reject fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let topology_arg =
  let doc = "Topology tag (see `r3 topologies')." in
  Arg.(value & opt string "abilene" & info [ "t"; "topology" ] ~docv:"TAG" ~doc)

let load_topology tag =
  match Topology.find tag with
  | Some { Topology.graph; _ } -> graph
  | None -> reject "unknown topology %S" tag

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Workload PRNG seed.")

(* Numeric options are range-checked as they are parsed, before any
   library precondition can trip on them. A nan, infinite or non-positive
   load factor leaves no gravity demand, and the offline LP would then
   "protect" an empty matrix. *)
let load_arg =
  let check load =
    if not (Float.is_finite load && load > 0.0) then
      reject "bad --load %g (use a finite load factor > 0)" load;
    load
  in
  Term.(
    const check
    $ Arg.(value & opt float 0.3 & info [ "load" ] ~docv:"F" ~doc:"Gravity-model load factor."))

(* An int option [name] (short when one letter) that must be >= [lo]. *)
let int_at_least lo name default ~docv ~doc =
  let check v =
    if v < lo then
      reject "bad %s%s %d (use an integer >= %d)"
        (if String.length name = 1 then "-" else "--")
        name v lo;
    v
  in
  let arg = Arg.(value & opt int default & info [ name ] ~docv ~doc) in
  Term.(const check $ arg)

(* --domains resizes the shared pool as a side effect of parsing, so
   every subcommand using this term honors it before it runs. *)
let domains_term =
  let domains_arg =
    Arg.(
      value
      & opt string "auto"
      & info [ "domains" ] ~docv:"D|auto"
          ~doc:
            "Size (1..64) of the shared domain pool every parallel stage \
             (sweep subtrees, CG separation oracles, online replay) runs \
             on; $(b,auto) keeps the machine-derived default.")
  in
  let apply s =
    match R3_util.Parallel.domains_of_string s with
    | Ok (Some d) -> R3_util.Parallel.set_domains d
    | Ok None -> ()
    | Error msg -> reject "%s" msg
  in
  Term.(const apply $ domains_arg)

(* ---- metrics export (shared by sweep / precompute / profile) ---- *)

let metrics_arg =
  let doc =
    "Emit the metrics registry as JSON after the run. With no PATH (or `-') \
     the document goes to stdout."
  in
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~docv:"PATH" ~doc)

let metrics_doc () =
  R3_util.Json.Obj
    [
      ("metrics", R3_util.Metrics.to_json ());
      ( "trace",
        R3_util.Json.List
          (List.map
             (fun (name, count, total) ->
               R3_util.Json.Obj
                 [
                   ("span", R3_util.Json.String name);
                   ("count", R3_util.Json.Int count);
                   ("total_s", R3_util.Json.Float total);
                 ])
             (R3_util.Trace.summary ())) );
    ]

let emit_metrics = function
  | None -> ()
  | Some path ->
    let doc = metrics_doc () in
    if path = "-" then print_endline (R3_util.Json.to_string_pretty doc)
    else begin
      R3_util.Json.write_file path doc;
      Printf.eprintf "metrics written to %s\n%!" path
    end

(* ---- topologies ---- *)

let topologies_cmd =
  let run () =
    List.iter
      (fun { Topology.tag; description; graph } ->
        Printf.printf "%-10s %3d nodes %4d d-links  %s\n" tag (G.num_nodes graph)
          (G.num_links graph) description)
      (Topology.catalog ())
  in
  Cmd.v (Cmd.info "topologies" ~doc:"List built-in topologies") Term.(const run $ const ())

(* ---- precompute ---- *)

let make_tm g ~seed ~load =
  let rng = R3_util.Prng.create seed in
  Traffic.gravity rng g ~load_factor:load ()

(* The plan every subcommand but precompute solves for itself: a gravity
   matrix, a unit-weight OSPF base, and a structured CG plan protecting
   against [k] physical (bidirectional) link failures. Exits 1 when the
   solve fails. *)
let physical_plan g ~k ~seed ~load =
  let tm = make_tm g ~seed ~load in
  let pairs, _ = Traffic.commodities tm in
  let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
  let cfg = { (Offline.default_config ~f:k) with solve_method = Offline.Constraint_gen } in
  let groups = { R3_core.Structured.srlgs = R3_core.Structured.physical_srlgs g; mlgs = []; k } in
  match R3_core.Structured.compute cfg g tm groups (Offline.Fixed base) with
  | Ok plan -> plan
  | Error m ->
    Printf.eprintf "R3 precompute failed: %s\n" m;
    exit 1

let precompute tag f bidir joint method_ () seed load out metrics =
  let g = load_topology tag in
  let tm = make_tm g ~seed ~load in
  let pairs, _ = Traffic.commodities tm in
  let solve_method =
    match method_ with
    | "dual" -> Offline.Dualized
    | "cg" -> Offline.Constraint_gen
    | other -> reject "unknown method %S (use cg or dual)" other
  in
  (* A structured plan is always solved by constraint generation, so a
     dualized one would be saved under a method that never ran. *)
  if bidir && solve_method = Offline.Dualized then
    reject "--bidir plans are solved by constraint generation: use --method cg";
  let cfg = { (Offline.default_config ~f) with solve_method } in
  let base_spec =
    if joint then Offline.Joint
    else
      Offline.Fixed (R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs ())
  in
  let result, dt =
    R3_util.Timer.time (fun () ->
        if bidir then
          R3_core.Structured.compute cfg g tm
            { R3_core.Structured.srlgs = R3_core.Structured.physical_srlgs g; mlgs = []; k = f }
            base_spec
        else Offline.compute cfg g tm base_spec)
  in
  match result with
  | Error msg ->
    Printf.eprintf "precompute failed: %s\n" msg;
    exit 1
  | Ok plan ->
    Printf.printf
      "plan: %s, F=%d (%s failures), MLU over d+X = %.4f, LP %d vars x %d rows, %.2fs\n"
      tag f
      (if bidir then "physical" else "directed")
      plan.Offline.mlu plan.Offline.lp_vars plan.Offline.lp_rows dt;
    if plan.Offline.mlu <= 1.0 then
      Printf.printf "congestion-free guarantee HOLDS (Theorem 1)\n"
    else
      Printf.printf "MLU > 1: protection is best-effort for this budget\n";
    (match out with
    | None -> ()
    | Some path ->
      R3_core.Plan_store.save path ~config:cfg plan;
      Printf.printf "plan saved to %s\n" path);
    emit_metrics metrics

let precompute_cmd =
  let f_arg = int_at_least 0 "f" 1 ~docv:"F" ~doc:"Failure budget." in
  let bidir_arg =
    Arg.(value & flag & info [ "bidir" ] ~doc:"Protect physical (bidirectional) failures.")
  in
  let joint_arg =
    Arg.(value & flag & info [ "joint" ] ~doc:"Jointly optimize the base routing (LP (7)).")
  in
  let method_arg =
    Arg.(
      value & opt string "cg"
      & info [ "method" ] ~docv:"cg|dual" ~doc:"Solve method (--bidir takes cg only).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output"; "save" ] ~docv:"FILE"
          ~doc:
            "Save the plan as a versioned binary snapshot (reload with \
             --plan on evaluate/online/sweep; inspect with `r3 plan \
             inspect').")
  in
  Cmd.v
    (Cmd.info "precompute" ~doc:"Run the R3 offline phase")
    Term.(
      const precompute $ topology_arg $ f_arg $ bidir_arg $ joint_arg $ method_arg
      $ domains_term $ seed_arg $ load_arg $ out_arg $ metrics_arg)

(* ---- evaluate ---- *)

let parse_links g spec =
  (* "NodeA-NodeB,NodeC-NodeD" or link ids "3,7" *)
  String.split_on_char ',' spec
  |> List.filter (fun s -> s <> "")
  |> List.concat_map (fun part ->
         match String.index_opt part '-' with
         | Some i ->
           let a = String.sub part 0 i in
           let b = String.sub part (i + 1) (String.length part - i - 1) in
           let na = try G.node_id g a with Not_found -> reject "unknown node %s" a in
           let nb = try G.node_id g b with Not_found -> reject "unknown node %s" b in
           (match G.find_link g na nb with
           | Some e -> List.find (List.mem e) (R3_core.Structured.physical_srlgs g)
           | None -> reject "no link %s-%s" a b)
         | None -> (
           match int_of_string_opt part with
           | Some e when e >= 0 && e < G.num_links g -> [ e ]
           | Some _ | None ->
             reject "bad link id %S (use an integer in 0..%d or a node pair A-B)" part
               (G.num_links g - 1)))

(* Load a plan snapshot or exit with the store's error message. *)
let load_plan ?expect_graph path =
  match R3_core.Plan_store.load ?expect_graph path with
  | Ok (plan, _config) -> plan
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 1

(* --plan FILE reuses a saved plan for [g]; without it, solve the
   {!physical_plan}. *)
let plan_or_load g path ~k ~seed ~load =
  match path with
  | Some path ->
    let plan = load_plan ~expect_graph:g path in
    Printf.eprintf "plan loaded from %s (offline solve skipped)\n%!" path;
    plan
  | None -> physical_plan g ~k ~seed ~load

let evaluate plan_path fail_spec =
  let plan = load_plan plan_path in
  let g = plan.Offline.graph in
  let links = parse_links g fail_spec in
  let st = R3_core.Reconfig.apply_failures (R3_core.Reconfig.of_plan plan) links in
  Printf.printf "failed %d directed links; MLU = %.4f; delivered = %.2f%%\n"
    (List.length links) (R3_core.Reconfig.mlu st)
    (100.0 *. R3_core.Reconfig.delivered_fraction st)

let evaluate_cmd =
  let plan_arg =
    Arg.(required & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc:"Saved plan.")
  in
  let fail_arg =
    Arg.(
      value & opt string ""
      & info [ "fail" ] ~docv:"A-B,C-D" ~doc:"Failure scenario (node pairs or link ids).")
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Apply a failure scenario to a saved plan")
    Term.(const evaluate $ plan_arg $ fail_arg)

(* ---- compare ---- *)

(* An evaluation environment over [plan]'s commodities, with unit OSPF
   weights for the baselines. *)
let ospf_env g (plan : Offline.plan) =
  R3_sim.Eval.make_env g ~weights:(R3_net.Ospf.unit_weights g) ~pairs:plan.pairs
    ~demands:plan.demands ~ospf_r3:plan ()

(* A failure count above the physical link count leaves no scenario. *)
let check_k g k =
  let n = Array.length (R3_sim.Scenarios.physical_links g) in
  if k > n then reject "bad -k %d (the topology has %d physical links)" k n

let compare_run tag k count seed load =
  let g = load_topology tag in
  check_k g k;
  let env = ospf_env g (physical_plan g ~k ~seed ~load) in
  let scenarios = R3_sim.Scenarios.sample g ~k ~count ~seed in
  let algorithms =
    R3_sim.Eval.[ Ospf_cspf_detour; Ospf_recon; Fcp; Path_splice; Ospf_r3; Ospf_opt ]
  in
  let curves = R3_sim.Sweep.curves env ~algorithms scenarios in
  Printf.printf "performance ratio vs optimal over %d scenarios of %d physical failures:\n"
    (List.length scenarios) k;
  List.iteri
    (fun i alg ->
      let c = curves.(i) in
      if Array.length c > 0 then
        Printf.printf "  %-18s median %.3f  p90 %.3f  worst %.3f\n"
          (R3_sim.Eval.algorithm_name alg)
          (R3_util.Stats.percentile 50.0 c)
          (R3_util.Stats.percentile 90.0 c)
          (R3_util.Stats.max c))
    algorithms

let compare_cmd =
  let k_arg = int_at_least 0 "k" 1 ~docv:"K" ~doc:"Physical failures per scenario." in
  let count_arg = int_at_least 1 "count" 30 ~docv:"N" ~doc:"Scenario count." in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare R3 against the baselines")
    Term.(const compare_run $ topology_arg $ k_arg $ count_arg $ seed_arg $ load_arg)

(* ---- sweep ---- *)

let parse_ks spec =
  let ks =
    String.split_on_char ',' spec
    |> List.filter (fun s -> s <> "")
    |> List.map int_of_string_opt
  in
  if ks = [] || List.exists (function Some k -> k < 0 | None -> true) ks then
    reject "bad -k list %S (use failure counts >= 0, e.g. 1,2,3)" spec;
  List.sort_uniq Int.compare (List.filter_map Fun.id ks)

(* k <= 2 is enumerated in full (as in the paper); larger k is sampled. *)
let sweep_scenarios g ks ~count ~seed =
  List.iter (check_k g) ks;
  List.concat_map
    (fun k ->
      if k <= 2 then R3_sim.Scenarios.enumerate g ~k
      else R3_sim.Scenarios.sample g ~k ~count ~seed)
    ks

let sweep_run tag ks count seed load metric () metrics plan_path =
  let module Eval = R3_sim.Eval in
  let module Sweep = R3_sim.Sweep in
  let g = load_topology tag in
  let metric =
    match metric with
    | "ratio" -> `Ratio
    | "bottleneck" -> `Bottleneck
    | other -> reject "unknown metric %S (use ratio or bottleneck)" other
  in
  let ks = parse_ks ks in
  let scenarios = sweep_scenarios g ks ~count ~seed in
  let kmax = List.fold_left Int.max 1 ks in
  let env = ospf_env g (plan_or_load g plan_path ~k:kmax ~seed ~load) in
  let algorithms =
    Eval.[ Ospf_cspf_detour; Ospf_recon; Fcp; Path_splice; Ospf_r3; Ospf_opt ]
  in
  let s, dt =
    R3_util.Timer.time (fun () -> Sweep.run ~metric env ~algorithms scenarios)
  in
  Printf.printf "%s over %d scenarios (k in {%s}), %.2fs:\n"
    (match metric with `Ratio -> "performance ratio vs optimal" | `Bottleneck -> "bottleneck intensity")
    s.Sweep.scenario_count
    (String.concat "," (List.map string_of_int ks))
    dt;
  Array.iteri
    (fun i alg ->
      let c = s.Sweep.curves.(i) in
      if Array.length c = 0 then
        Printf.printf "  %-18s (no defined values)\n" (Eval.algorithm_name alg)
      else begin
        match R3_util.Stats.quantiles ~ps:[ 50.0; 90.0; 99.0 ] c with
        | [ p50; p90; p99 ] ->
          Printf.printf "  %-18s median %.3f  p90 %.3f  p99 %.3f  worst %.3f"
            (Eval.algorithm_name alg) p50 p90 p99 (R3_util.Stats.max c);
          (match s.Sweep.worst.(i) with
          | Some (sc, v) ->
            Printf.printf "  (%.3f @ %s)" v (R3_sim.Scenario.describe g sc)
          | None -> ());
          if s.Sweep.undefined.(i) > 0 then
            Printf.printf "  [%d undefined dropped]" s.Sweep.undefined.(i);
          print_newline ()
        | _ -> assert false
      end)
    s.Sweep.algorithms;
  emit_metrics metrics

let sweep_cmd =
  let ks_arg =
    Arg.(value & opt string "1,2" & info [ "k" ] ~docv:"K1,K2" ~doc:"Physical failure counts; k <= 2 enumerated, larger sampled.")
  in
  let count_arg = int_at_least 1 "count" 100 ~docv:"N" ~doc:"Sample size per k > 2." in
  let metric_arg =
    Arg.(value & opt string "ratio" & info [ "metric" ] ~docv:"ratio|bottleneck" ~doc:"Metric to aggregate.")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"FILE"
          ~doc:
            "Reuse a saved plan snapshot (from `precompute --save') instead \
             of re-running the offline LP; must match the topology of $(b,-t).")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Bulk scenario sweep (prefix-sharing engine)")
    Term.(
      const sweep_run $ topology_arg $ ks_arg $ count_arg $ seed_arg $ load_arg
      $ metric_arg $ domains_term $ metrics_arg $ plan_arg)

(* ---- profile ---- *)

(* End-to-end instrumented run: offline precompute (constraint generation,
   so the LP session counters move) followed by one ratio sweep, which
   solves the optimal-MCF normalizer and the opt detour per scenario. The
   metrics/trace JSON goes to stdout (or a file); the human-readable
   digest goes to stderr. *)
let profile tag ks count seed load () out trace_out =
  let module Eval = R3_sim.Eval in
  let module Sweep = R3_sim.Sweep in
  R3_util.Metrics.reset ();
  R3_util.Trace.reset ();
  let g = load_topology tag in
  let ks = parse_ks ks in
  let scenarios = sweep_scenarios g ks ~count ~seed in
  let kmax = List.fold_left Int.max 1 ks in
  let env = ospf_env g (physical_plan g ~k:kmax ~seed ~load) in
  let algorithms =
    Eval.[ Ospf_cspf_detour; Ospf_recon; Fcp; Path_splice; Ospf_r3; Ospf_opt ]
  in
  let s = Sweep.run ~metric:`Ratio env ~algorithms scenarios in
  Printf.eprintf "profiled %s: %d scenarios, one sweep (k in {%s})\n" tag
    s.Sweep.scenario_count
    (String.concat "," (List.map string_of_int ks));
  Printf.eprintf "key counters:\n";
  List.iter
    (fun name ->
      Printf.eprintf "  %-24s %d\n" name (R3_util.Metrics.counter_value name))
    [
      "lp.solves"; "lp.pivots"; "lp.phase1_pivots"; "lp.dual_pivots";
      "lp.degenerate_pivots"; "lp.harris_rejections"; "lp.rev.refactorizations";
      "lp.session.cold_starts"; "lp.session.warm_resolves"; "offline.cg.rounds";
      "offline.cg.cuts"; "offline.cg.budget_exhausted"; "mcf.dest_solves";
      "mcf.reroute_solves"; "sweep.scenarios";
      "sweep.tree_nodes"; "sweep.cow_steps"; "r3.reconfig.base_forces";
    ];
  Printf.eprintf "spans (heaviest first):\n";
  List.iter
    (fun (name, n, total) ->
      Printf.eprintf "  %-24s %6d  %8.3fs\n" name n total)
    (R3_util.Trace.summary ());
  (match trace_out with
  | None -> ()
  | Some path ->
    R3_util.Trace.export_ndjson path;
    Printf.eprintf "spans written to %s (ndjson)\n" path;
    let dropped = R3_util.Trace.dropped () and recorded = R3_util.Trace.recorded () in
    if dropped > 0 then
      Printf.eprintf
        "  it holds the newest %d of %d spans: the ring dropped %d (the digest counts all)\n"
        (recorded - dropped) recorded dropped);
  emit_metrics (Some out)

let profile_cmd =
  let ks_arg =
    Arg.(value & opt string "1" & info [ "k" ] ~docv:"K1,K2" ~doc:"Physical failure counts; k <= 2 enumerated, larger sampled.")
  in
  let count_arg = int_at_least 1 "count" 30 ~docv:"N" ~doc:"Sample size per k > 2." in
  let out_arg =
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Metrics JSON destination (`-' = stdout).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc:"Also dump raw spans as ndjson.")
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Instrumented end-to-end run; emits metrics JSON")
    Term.(
      const profile $ topology_arg $ ks_arg $ count_arg $ seed_arg $ load_arg
      $ domains_term $ out_arg $ trace_arg)

(* ---- online ---- *)

let online tag f n_events faults fibs () seed load metrics plan_path ckpt
    ckpt_every =
  let module Online = R3_sim.Online in
  let g = load_topology tag in
  let plan = plan_or_load g plan_path ~k:f ~seed ~load in
  let root = R3_core.Reconfig.of_plan plan in
  let schedule =
    Online.generate g ~seed ~events:n_events ~max_concurrent:f ()
  in
  let channel =
    if faults then Online.Channel.faulty Online.Channel.default_faults
    else Online.Channel.ideal ()
  in
  let drive () =
    match ckpt with
    | None ->
      Online.run ~channel ~seed ~mlu_bound:plan.Offline.mlu ~fibs root
        schedule
    | Some path ->
      (* Resume from an existing checkpoint, then run in stop_after-sized
         slices, persisting the protocol state after each; the file is
         removed once the run completes. *)
      let resume =
        if Sys.file_exists path then begin
          match Online.Checkpoint.load path with
          | Ok ck ->
            Printf.eprintf "resuming from %s (delivery cursor %d)\n%!" path
              (Online.Checkpoint.cursor ck);
            Some ck
          | Error msg ->
            Printf.eprintf "%s\n" msg;
            exit 1
        end
        else None
      in
      let rec go resume =
        match
          Online.run_to ~channel ~seed ~mlu_bound:plan.Offline.mlu ~fibs
            ?resume ~stop_after:ckpt_every root schedule
        with
        | `Paused ck ->
          Online.Checkpoint.save path ck;
          go (Some ck)
        | `Done o ->
          (try Sys.remove path with Sys_error _ -> ());
          o
      in
      (try go resume
       with Invalid_argument msg ->
         Printf.eprintf "%s\n" msg;
         exit 1)
  in
  let o, dt = R3_util.Timer.time drive in
  let s = o.Online.stats in
  Printf.printf "online %s: F=%d, plan MLU* = %.4f, channel = %s\n" tag f
    plan.Offline.mlu
    (Online.Channel.name channel);
  Printf.printf
    "  %d events, %d deliveries (%d stale, %d dropped, %d retried), %d \
     distinct states, %.0f events/s\n"
    s.Online.events s.Online.deliveries s.Online.stale s.Online.drops
    s.Online.retries s.Online.distinct_states
    (if dt > 0.0 then float_of_int s.Online.events /. dt else 0.0);
  let conv =
    Array.of_list
      (List.filter (fun c -> not (Float.is_nan c))
         (Array.to_list s.Online.convergence_ms))
  in
  if Array.length conv > 0 then begin
    match R3_util.Stats.quantiles ~ps:[ 50.0; 99.0 ] conv with
    | [ p50; p99 ] ->
      Printf.printf "  convergence p50 %.1f ms  p99 %.1f ms  max %.1f ms\n"
        p50 p99 (R3_util.Stats.max conv)
    | _ -> assert false
  end;
  Printf.printf
    "  quiescent MLU %.4f; transient peak %.4f; min delivered %.2f%%; %d \
     violation windows\n"
    o.Online.quiescent_mlu s.Online.transient_mlu_peak
    (100.0 *. s.Online.min_delivered)
    (List.length s.Online.violation_windows);
  List.iter
    (fun (t0, t1) ->
      Printf.printf "    MLU above plan bound during [%.1f, %.1f] ms\n" t0 t1)
    s.Online.violation_windows;
  Printf.printf "  terminal state %s the batch replay%s\n"
    (if o.Online.order_independent then "bit-identical to" else "DIVERGES from")
    (if not fibs then ""
     else if o.Online.fib_consistent then "; per-router FIBs consistent"
     else "; per-router FIBs INCONSISTENT");
  emit_metrics metrics;
  if not (o.Online.order_independent && o.Online.fib_consistent) then exit 1

let online_cmd =
  let f_arg =
    int_at_least 1 "f" 2 ~docv:"F"
      ~doc:"Failure budget (also caps concurrent failures in the schedule)."
  in
  let events_arg =
    int_at_least 0 "events" 50 ~docv:"N" ~doc:"Failure/recovery events to generate."
  in
  let faults_arg =
    Arg.(value & flag & info [ "faults" ] ~doc:"Inject channel faults (jitter, duplication, drop with retry).")
  in
  let fibs_arg =
    Arg.(value & flag & info [ "fibs" ] ~doc:"Also maintain per-router MPLS-ff FIBs and check them against a full rebuild.")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"FILE"
          ~doc:
            "Reuse a saved plan snapshot (from `precompute --save') instead \
             of re-running the offline LP/CG; must match the topology of \
             $(b,-t).")
  in
  let ckpt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"PATH"
          ~doc:
            "Crash-safe warm restart: periodically persist the per-router \
             protocol state to PATH, resume from it when it exists, and \
             remove it on completion.")
  in
  (* [run_to ~stop_after:0] pauses without progress, so a zero slice
     would save the same checkpoint forever. *)
  let ckpt_every_arg =
    int_at_least 1 "checkpoint-every" 256 ~docv:"N"
      ~doc:"Notification deliveries between checkpoint saves (at least 1)."
  in
  Cmd.v
    (Cmd.info "online" ~doc:"Event-driven online reconfiguration run")
    Term.(
      const online $ topology_arg $ f_arg $ events_arg $ faults_arg $ fibs_arg
      $ domains_term $ seed_arg $ load_arg $ metrics_arg $ plan_arg
      $ ckpt_arg $ ckpt_every_arg)

(* ---- plan (snapshot utilities) ---- *)

let plan_inspect path =
  match R3_core.Plan_store.inspect path with
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 1
  | Ok i ->
    let open R3_core.Plan_store in
    Printf.printf "%s: R3 plan snapshot, format v%d, %d bytes\n" path i.version
      i.bytes;
    Printf.printf "  fingerprint %s\n" i.fingerprint;
    Printf.printf "  topology    %d nodes, %d directed links\n" i.nodes i.links;
    Printf.printf "  workload    %d commodities\n" i.commodities;
    Printf.printf "  protection  F = %d, MLU over d+X = %.4f (%s)\n" i.f i.mlu
      (if i.mlu <= 1.0 then "congestion-free" else "best-effort");
    Printf.printf "  solved via  %s\n"
      (match i.config.Offline.solve_method with
      | Offline.Dualized -> "dualized LP (7)"
      | Offline.Constraint_gen -> "constraint generation");
    let per_row nnz rows = float_of_int nnz /. float_of_int (Int.max rows 1) in
    Printf.printf
      "  row storage  base %d entries (%.1f/row), protection %d entries (%.1f/row)\n"
      i.base_nnz
      (per_row i.base_nnz i.commodities)
      i.protection_nnz
      (per_row i.protection_nnz i.links)

let plan_cmd =
  let path_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Plan snapshot file.")
  in
  let inspect_cmd =
    Cmd.v
      (Cmd.info "inspect" ~doc:"Validate and describe a plan snapshot")
      Term.(const plan_inspect $ path_arg)
  in
  Cmd.group (Cmd.info "plan" ~doc:"Plan snapshot utilities") [ inspect_cmd ]

(* ---- storage ---- *)

let storage tag seed load =
  let g = load_topology tag in
  let plan = physical_plan g ~k:1 ~seed ~load in
  let report = R3_mplsff.Storage.of_protection g plan.Offline.protection in
  Format.printf "%s: %a@." tag R3_mplsff.Storage.pp report

let storage_cmd =
  Cmd.v
    (Cmd.info "storage" ~doc:"Router storage report (Table 3)")
    Term.(const storage $ topology_arg $ seed_arg $ load_arg)

(* ---- fuzz ---- *)

let fuzz cases seed oracle list replay replay_seed corpus shrink_budget =
  let log line = Printf.printf "%s\n%!" line in
  if list then
    List.iter
      (fun o -> Printf.printf "%-26s %s\n" o.R3_check.Oracle.name o.R3_check.Oracle.doc)
      R3_check.Oracle.all
  else
    match (replay, replay_seed) with
    | Some path, _ ->
      let o = R3_check.Fuzz.replay ~log path in
      Printf.printf "replayed %d corpus case%s clean\n"
        o.R3_check.Fuzz.replayed
        (if o.R3_check.Fuzz.replayed = 1 then "" else "s");
      List.iter (fun msg -> Printf.eprintf "%s\n" msg) o.R3_check.Fuzz.problems;
      if o.R3_check.Fuzz.problems <> [] then exit 1
    | None, Some case_seed -> (
      let oracle =
        match oracle with
        | Some o -> o
        | None -> reject "--replay-seed needs --oracle (the failure line names both)"
      in
      match R3_check.Fuzz.replay_seed ~log ~oracle ~seed:case_seed () with
      | Ok () -> ()
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1)
    | None, None -> (
      match
        R3_check.Fuzz.run ?oracle ~corpus_dir:corpus ~shrink_budget ~log ~cases
          ~seed ()
      with
      | Error msg -> reject "%s" msg
      | Ok r ->
        let nf = List.length r.R3_check.Fuzz.failures in
        let n_oracles =
          match oracle with Some _ -> 1 | None -> List.length R3_check.Oracle.all
        in
        Printf.printf "fuzz: %d cases, seed %d, %d oracle%s: %s\n"
          r.R3_check.Fuzz.cases seed n_oracles
          (if n_oracles = 1 then "" else "s")
          (if nf = 0 then "all clean"
           else Printf.sprintf "%d FAILURES (minimized cases in %s)" nf corpus);
        if nf > 0 then exit 1)

let fuzz_cmd =
  let cases_arg = int_at_least 1 "cases" 200 ~docv:"N" ~doc:"Generated cases to run." in
  let oracle_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:"Restrict to one oracle (see $(b,--list)).")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List the oracle registry and exit.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"PATH"
          ~doc:
            "Replay a corpus case file (or every *.json under a directory) \
             and expect each to pass — red means a fixed bug is back.")
  in
  let replay_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay-seed" ] ~docv:"SEED"
          ~doc:
            "Regenerate one case from the seed a failure line printed \
             (needs $(b,--oracle)) and run it.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt string R3_check.Fuzz.default_corpus_dir
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Directory that receives minimized failing cases.")
  in
  let budget_arg =
    int_at_least 0 "shrink-budget" 300 ~docv:"N" ~doc:"Oracle invocations allowed per shrink."
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Seeded differential fuzzing of the R3 stack; corpus replay")
    Term.(
      const fuzz $ cases_arg $ seed_arg $ oracle_arg $ list_arg $ replay_arg
      $ replay_seed_arg $ corpus_arg $ budget_arg)

let () =
  let info = Cmd.info "r3" ~version:"1.0.0" ~doc:"Resilient Routing Reconfiguration" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ topologies_cmd; precompute_cmd; evaluate_cmd; compare_cmd; sweep_cmd;
            profile_cmd; online_cmd; plan_cmd; storage_cmd; fuzz_cmd ]))
