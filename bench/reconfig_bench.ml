(* Online-reconfiguration benchmark: the copy-on-write failure-folding
   kernel (Reconfig.fail / apply_failures) on the sparse routing rows.
   The protection routing is the static CSPF bypass
   (R3_baselines.Cspf_detour.protection: one SPF detour path per link, no
   LP solve) so the bench isolates the substrate, and every scenario's
   folded state is checked bit for bit against the naive dense reference
   fold (R3_check.Dense_ref). Results go to stdout and
   BENCH_reconfig.json.

   Run as:  dune exec bench/main.exe -- reconfig
            dune exec bench/main.exe -- --smoke reconfig   (tiny, no JSON) *)

module G = R3_net.Graph
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Routing = R3_net.Routing
module Reconfig = R3_core.Reconfig
module Scenario = R3_core.Scenario
module Dense_ref = R3_check.Dense_ref
module J = R3_util.Json
module H = Harness

let output_path = "BENCH_reconfig.json"

let check name ok = if not ok then failwith ("reconfig bench: " ^ name ^ " MISMATCH")

let make_state g ~seed =
  let rng = R3_util.Prng.create seed in
  let tm = Traffic.gravity rng g ~load_factor:0.3 () in
  let pairs, demands = Traffic.commodities tm in
  let weights = R3_net.Ospf.unit_weights g in
  let base = R3_net.Ospf.routing g ~weights ~pairs () in
  let protection = R3_baselines.Cspf_detour.protection g in
  Reconfig.make g ~pairs ~demands ~base ~protection

(* Deterministic 2-physical-failure scenarios (distinct undirected links),
   in drawn order: not necessarily ascending. *)
let scenarios g ~seed ~count =
  let phys = Array.to_list (R3_sim.Scenarios.physical_links g) in
  let phys = Array.of_list phys in
  let rng = R3_util.Prng.create seed in
  List.init count (fun _ ->
      let a = R3_util.Prng.int rng (Array.length phys) in
      let b = R3_util.Prng.int rng (Array.length phys) in
      if a = b then [ phys.(a) ] else [ phys.(a); phys.(b) ])

let fold_scenario st links =
  List.fold_left
    (fun st e -> Reconfig.fail st (Scenario.of_links st.Reconfig.graph [ e ]))
    st links

(* Throughput of the failure-folding kernel alone: replay every scenario
   from the pristine state and read its base routing, so the per-commodity
   base fold (which [Reconfig.fail] defers until a reader asks) is timed. *)
let bench_step ~repeats st scens =
  R3_util.Timer.best_of ~repeats (fun () ->
      List.iter (fun links -> ignore (Reconfig.base (fold_scenario st links))) scens)

(* Sweep: step every scenario and evaluate the post-failure MLU, which
   reads the folded load vector and leaves the base routing unfolded. *)
let bench_sweep ~repeats st scens =
  R3_util.Timer.best_of ~repeats (fun () ->
      List.iter
        (fun links -> ignore (Reconfig.mlu (fold_scenario st links)))
        scens)

let one_topology ~repeats ~seed ~nscen name g =
  let scens = scenarios g ~seed:(seed + 1) ~count:nscen in
  let st = make_state g ~seed in
  let pristine = Dense_ref.pristine st in
  let srlgs = R3_core.Structured.physical_srlgs g in
  (* On every scenario, against the dense reference: the step fold
     (which lands on the canonical state), apply_failures in canonical
     order, and apply_failures in drawn order. *)
  List.iter
    (fun links ->
      let directed = List.concat_map (fun e -> List.find (List.mem e) srlgs) links in
      let canonical = Scenario.links (Scenario.of_physical g links) in
      let agrees what got want =
        match Dense_ref.mismatch got want with
        | None -> ()
        | Some d -> failwith (Printf.sprintf "reconfig bench: %s %s: %s" name what d)
      in
      let folded = fold_scenario st links in
      agrees "folded state" folded (Dense_ref.of_state folded);
      agrees "canonical apply_failures fold"
        (Reconfig.apply_failures st canonical)
        (Dense_ref.fold pristine canonical);
      agrees "drawn-order apply_failures fold"
        (Reconfig.apply_failures st directed)
        (Dense_ref.fold pristine directed))
    scens;
  let t_step = bench_step ~repeats st scens in
  let t_sweep = bench_sweep ~repeats st scens in
  let per_row r = float_of_int (Routing.nnz r) /. float_of_int (Routing.num_commodities r) in
  let base_per_row = per_row (Reconfig.base st) in
  let protection_per_row = per_row st.Reconfig.protection in
  Printf.printf
    "  %-7s: step %8.2f scen/s | sweep(mlu) %8.2f scen/s | %.1f / %.1f entries \
     per base / protection row of %d\n%!"
    name
    (float_of_int nscen /. t_step)
    (float_of_int nscen /. t_sweep)
    base_per_row protection_per_row (G.num_links g);
  J.Obj
    [
      ("topology", J.String name);
      ("nodes", J.Int (G.num_nodes g));
      ("links", J.Int (G.num_links g));
      ("scenarios", J.Int nscen);
      ("matches_dense_reference", J.Bool true);
      ("base_entries_per_row", J.Float base_per_row);
      ("protection_entries_per_row", J.Float protection_per_row);
      ("step_seconds", J.Float t_step);
      ("sweep_seconds", J.Float t_sweep);
    ]

let pop36 () =
  Topology.random ~seed:36 ~nodes:36 ~undirected_links:80
    ~capacities:[ (10.0, 0.5); (40.0, 0.3); (100.0, 0.2) ]
    ()

let run () =
  H.section "Online reconfiguration: copy-on-write folds on sparse rows";
  if !H.smoke then begin
    (* Tiny end-to-end pass for @bench-check: correctness checks only. *)
    ignore (one_topology ~repeats:1 ~seed:7 ~nscen:4 "abilene" (Topology.abilene ()));
    let module M = R3_util.Metrics in
    check "metrics: rows recorded" (M.counter_value "r3.routing.rows" > 0);
    check "metrics: cow ratio recorded"
      (M.gauge_value (M.gauge "r3.reconfig.cow_shared_ratio") <> None);
    H.note "smoke mode: no %s written" output_path
  end
  else begin
    let repeats = 3 in
    let abilene = one_topology ~repeats ~seed:7 ~nscen:60 "abilene" (Topology.abilene ()) in
    let pop = one_topology ~repeats ~seed:7 ~nscen:60 "pop36" (pop36 ()) in
    let doc =
      J.Obj
        [
          ("bench", J.String "reconfig");
          ("abilene", abilene);
          ("pop36", pop);
          H.metrics_section ();
        ]
    in
    J.write_file output_path doc;
    H.note "wrote %s" output_path
  end
