(* Online-engine benchmark: event-processing throughput and per-event
   convergence latency of the event-driven reconfiguration runtime, under
   the ideal channel and the fault-injected one (jitter + duplication +
   drop-with-retry). The protection routing is the static CSPF bypass
   (one SPF detour per link, no LP solve — shared with Reconfig_bench) so the bench
   isolates the engine: delivery expansion, per-router version tracking,
   and the memoized canonical-state folds. Every timed run also asserts
   the terminal state is bit-identical to the batch replay.

   Results go to stdout and BENCH_online.json.

   Run as:  dune exec bench/main.exe -- online
            dune exec bench/main.exe -- --smoke online   (tiny, no JSON) *)

module G = R3_net.Graph
module Topology = R3_net.Topology
module Online = R3_sim.Online
module J = R3_util.Json
module H = Harness

let output_path = "BENCH_online.json"

let check name ok = if not ok then failwith ("online bench: " ^ name ^ " MISMATCH")

let channels () =
  [
    Online.Channel.ideal ();
    Online.Channel.faulty Online.Channel.default_faults;
  ]

let quantile p arr = R3_util.Stats.percentile p arr

let one_case ~repeats ~events name g channel =
  let root =
    Reconfig_bench.make_state g ~seed:11
  in
  let schedule = Online.generate g ~seed:23 ~events ~max_concurrent:2 () in
  let n_events = List.length schedule in
  let run () = Online.run ~channel ~seed:23 root schedule in
  let o = run () in
  let cname = Online.Channel.name channel in
  check (name ^ "/" ^ cname ^ " order independence") o.Online.order_independent;
  let dt = R3_util.Timer.best_of ~repeats (fun () -> ignore (run ())) in
  let conv =
    Array.of_list
      (List.filter
         (fun c -> not (Float.is_nan c))
         (Array.to_list o.Online.stats.Online.convergence_ms))
  in
  check (name ^ "/" ^ cname ^ " convergence recorded") (Array.length conv = n_events);
  let eps = float_of_int n_events /. Float.max dt 1e-9 in
  let p50 = quantile 50.0 conv and p99 = quantile 99.0 conv in
  Printf.printf
    "  %-6s %-6s: %4d events %6d deliveries | %9.0f events/s | convergence \
     p50 %6.1f ms  p99 %6.1f ms\n%!"
    name cname n_events o.Online.stats.Online.deliveries eps p50 p99;
  J.Obj
    [
      ("topology", J.String name);
      ("channel", J.String cname);
      ("events", J.Int n_events);
      ("deliveries", J.Int o.Online.stats.Online.deliveries);
      ("stale", J.Int o.Online.stats.Online.stale);
      ("drops", J.Int o.Online.stats.Online.drops);
      ("retries", J.Int o.Online.stats.Online.retries);
      ("distinct_states", J.Int o.Online.stats.Online.distinct_states);
      ("seconds", J.Float dt);
      ("events_per_s", J.Float eps);
      ("convergence_p50_ms", J.Float p50);
      ("convergence_p99_ms", J.Float p99);
      ("convergence_max_ms", J.Float (R3_util.Stats.max conv));
      ("order_independent", J.Bool o.Online.order_independent);
    ]

let run () =
  H.section "Online runtime: event throughput and convergence latency";
  if !H.smoke then begin
    (* Tiny end-to-end pass for @bench-check: correctness checks only,
       with per-router FIB maintenance switched on. *)
    let g = Topology.abilene () in
    let root =
      Reconfig_bench.make_state g ~seed:11
    in
    let schedule = Online.generate g ~seed:5 ~events:10 ~max_concurrent:2 () in
    List.iter
      (fun channel ->
        let o = Online.run ~channel ~seed:5 ~fibs:true root schedule in
        let cname = Online.Channel.name channel in
        check (cname ^ " order independence") o.Online.order_independent;
        check (cname ^ " fib consistency") o.Online.fib_consistent)
      (channels ());
    let module M = R3_util.Metrics in
    check "metrics: events recorded" (M.counter_value "r3.online.events" > 0);
    check "metrics: deliveries recorded"
      (M.counter_value "r3.online.deliveries" > 0);
    H.note "smoke mode: no %s written" output_path
  end
  else begin
    let repeats = 3 in
    let events = if !H.quick then 200 else 1000 in
    let topologies =
      [ ("abilene", Topology.abilene ()); ("pop36", Reconfig_bench.pop36 ()) ]
    in
    let rows =
      List.concat_map
        (fun (name, g) ->
          List.map (fun ch -> one_case ~repeats ~events name g ch) (channels ()))
        topologies
    in
    let doc =
      J.Obj
        [
          ("bench", J.String "online");
          ( "faults",
            (let f = Online.Channel.default_faults in
             J.Obj
               [
                 ("jitter_ms", J.Float f.Online.Channel.jitter_ms);
                 ("dup_prob", J.Float f.Online.Channel.dup_prob);
                 ("drop_prob", J.Float f.Online.Channel.drop_prob);
                 ("max_retries", J.Int f.Online.Channel.max_retries);
                 ("backoff_ms", J.Float f.Online.Channel.backoff_ms);
               ]) );
          ("cases", J.List rows);
          H.metrics_section ();
        ]
    in
    J.write_file output_path doc;
    H.note "wrote %s" output_path
  end
