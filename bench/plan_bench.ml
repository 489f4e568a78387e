(* Plan-store benchmark: how much faster is reloading a persisted plan
   snapshot than recomputing it with the constraint-generation LP — the
   number that justifies `r3 precompute --save` + `r3 online --plan`.

   One pop36 case: solve the structured offline plan from scratch (timed),
   persist it through R3_core.Plan_store (timed), reload it (timed,
   best-of), and assert the reload is bit-identical to the original.
   The headline ratio recompute/load goes to BENCH_plan.json; falling
   short of the >10x expectation prints a warning (wall clocks on shared
   CI are too noisy for a hard gate).

   Run as:  dune exec bench/main.exe -- plan
            dune exec bench/main.exe -- --smoke plan   (abilene, no JSON) *)

module G = R3_net.Graph
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Routing = R3_net.Routing
module Offline = R3_core.Offline
module Plan_store = R3_core.Plan_store
module J = R3_util.Json
module H = Harness

let output_path = "BENCH_plan.json"

let check name ok = if not ok then failwith ("plan bench: " ^ name ^ " MISMATCH")

let plans_bit_identical (a : Offline.plan) (b : Offline.plan) =
  a.Offline.f = b.Offline.f
  && Int64.bits_of_float a.Offline.mlu = Int64.bits_of_float b.Offline.mlu
  && a.Offline.pairs = b.Offline.pairs
  && Array.map Int64.bits_of_float a.Offline.demands
     = Array.map Int64.bits_of_float b.Offline.demands
  && Routing.bits_equal a.Offline.base b.Offline.base
  && Routing.bits_equal a.Offline.protection b.Offline.protection

(* The same structured CG solve the experiment harness runs: OSPF base on
   unit weights, one SRLG per bidirectional pair, k = 1. *)
let solve g ~seed =
  let rng = R3_util.Prng.create seed in
  let tm = Traffic.gravity rng g ~load_factor:0.3 () in
  let pairs, _ = Traffic.commodities tm in
  let weights = R3_net.Ospf.unit_weights g in
  let base = R3_net.Ospf.routing g ~weights ~pairs () in
  let cfg =
    { (Offline.default_config ~f:1) with solve_method = Offline.Constraint_gen }
  in
  let groups = { R3_core.Structured.srlgs = R3_core.Structured.physical_srlgs g; mlgs = []; k = 1 } in
  let compute () =
    R3_core.Structured.compute cfg g tm groups (Offline.Fixed base)
  in
  (cfg, compute)

let tmp_snapshot () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "r3-plan-bench-%d.plan" (Unix.getpid ()))

let one_case ~load_repeats name g ~seed =
  let cfg, compute = solve g ~seed in
  let result, recompute_s = R3_util.Timer.time compute in
  let plan =
    match result with
    | Ok p -> p
    | Error msg -> failwith ("plan bench: offline solve failed: " ^ msg)
  in
  let path = tmp_snapshot () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let (), save_s =
        R3_util.Timer.time (fun () -> Plan_store.save path ~config:cfg plan)
      in
      let bytes = (Unix.stat path).Unix.st_size in
      let reloaded = ref None in
      let load_s =
        R3_util.Timer.best_of ~repeats:load_repeats (fun () ->
            match Plan_store.load ~expect_graph:g path with
            | Ok (p, _) -> reloaded := Some p
            | Error msg -> failwith ("plan bench: reload failed: " ^ msg))
      in
      let plan' = Option.get !reloaded in
      check (name ^ " reload bit-identical") (plans_bit_identical plan plan');
      let speedup = recompute_s /. Float.max load_s 1e-9 in
      Printf.printf
        "  %-6s: recompute %7.3fs | save %7.4fs | load %8.5fs | %7d bytes | \
         load speedup %8.1fx\n%!"
        name recompute_s save_s load_s bytes speedup;
      if speedup <= 10.0 then
        H.note "WARNING: %s: load speedup %.1fx <= 10x (recompute %.3fs, load %.5fs)"
          name speedup recompute_s load_s;
      J.Obj
        [
          ("topology", J.String name);
          ("nodes", J.Int (G.num_nodes g));
          ("links", J.Int (G.num_links g));
          ("commodities", J.Int (Array.length plan.Offline.pairs));
          ("mlu", J.Float plan.Offline.mlu);
          ("lp_pivots", J.Int plan.Offline.lp_pivots);
          ("recompute_seconds", J.Float recompute_s);
          ("save_seconds", J.Float save_s);
          ("load_seconds", J.Float load_s);
          ("bytes", J.Int bytes);
          ("load_speedup", J.Float speedup);
        ])

let run () =
  H.section "Plan store: snapshot load vs offline CG recompute";
  if !H.smoke then begin
    (* Tiny end-to-end pass for @bench-check: round-trip bit-identity and
       corruption rejection on abilene, no timing, no JSON. *)
    let g = Topology.abilene () in
    let cfg, compute = solve g ~seed:3 in
    let plan =
      match compute () with
      | Ok p -> p
      | Error msg -> failwith ("plan bench: offline solve failed: " ^ msg)
    in
    let path = tmp_snapshot () in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      (fun () ->
        Plan_store.save path ~config:cfg plan;
        (match Plan_store.load ~expect_graph:g path with
        | Ok (plan', _) ->
          check "smoke reload bit-identical" (plans_bit_identical plan plan')
        | Error msg -> failwith ("plan bench: smoke reload failed: " ^ msg));
        (* Flip one payload byte: the CRC must reject the snapshot. *)
        let ic = open_in_bin path in
        let raw = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let corrupt = Bytes.of_string raw in
        let pos = String.length raw - 9 in
        Bytes.set corrupt pos
          (Char.chr (Char.code (Bytes.get corrupt pos) lxor 0x40));
        let oc = open_out_bin path in
        output_bytes oc corrupt;
        close_out oc;
        match Plan_store.load path with
        | Error _ -> ()
        | Ok _ -> failwith "plan bench: corrupted snapshot was accepted");
    H.note "smoke mode: no %s written" output_path
  end
  else begin
    let load_repeats = if !H.quick then 3 else 7 in
    let rows =
      [ one_case ~load_repeats "pop36" (Reconfig_bench.pop36 ()) ~seed:36 ]
    in
    let doc =
      J.Obj
        [
          ("bench", J.String "plan");
          ("format_version", J.Int Plan_store.version);
          ("cases", J.List rows);
          H.metrics_section ();
        ]
    in
    J.write_file output_path doc;
    H.note "wrote %s" output_path
  end
