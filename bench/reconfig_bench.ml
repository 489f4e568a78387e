(* Online-reconfiguration benchmark: the copy-on-write failure-folding
   kernel (Reconfig.fail / apply_failures) under the three Routing storage
   backends. The protection routing is synthetic (one SPF detour path per
   link, no LP solve) so the bench isolates the substrate: dense rows pay
   O(m) per touched row, sparse rows O(nnz), and the two must stay
   bit-identical. Results go to stdout and BENCH_reconfig.json.

   Run as:  dune exec bench/main.exe -- reconfig
            dune exec bench/main.exe -- --smoke reconfig   (tiny, no JSON) *)

module G = R3_net.Graph
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Routing = R3_net.Routing
module Spf = R3_net.Spf
module Reconfig = R3_core.Reconfig
module Scenario = R3_core.Scenario
module J = R3_util.Json
module H = Harness

let output_path = "BENCH_reconfig.json"

let check name ok = if not ok then failwith ("reconfig bench: " ^ name ^ " MISMATCH")

(* One detour path per link: the SPF route around the link itself, or the
   self row (traffic dropped) when removing the link disconnects its
   endpoints. Row support is one path — the shape LP protections have. *)
let synthetic_protection g ~backend =
  let weights = R3_net.Ospf.unit_weights g in
  let m = G.num_links g in
  let p =
    Routing.create ~backend g
      ~pairs:(Array.init m (fun e -> (G.src g e, G.dst g e)))
  in
  for l = 0 to m - 1 do
    let failed = G.fail_links g [ l ] in
    match Spf.shortest_path g ~failed ~weights ~src:(G.src g l) ~dst:(G.dst g l) () with
    | Some path -> List.iter (fun e -> Routing.set p l e 1.0) path
    | None -> Routing.set p l l 1.0
  done;
  p

let make_state g ~backend ~seed =
  let rng = R3_util.Prng.create seed in
  let tm = Traffic.gravity rng g ~load_factor:0.3 () in
  let pairs, demands = Traffic.commodities tm in
  let weights = R3_net.Ospf.unit_weights g in
  let base = R3_net.Ospf.routing g ~backend ~weights ~pairs () in
  let protection = synthetic_protection g ~backend in
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

let backends = Routing.Backend.[ Dense; Sparse; Auto ]

let one_topology ~repeats ~seed ~nscen name g =
  let scens = scenarios g ~seed:(seed + 1) ~count:nscen in
  let states =
    List.map (fun b -> (b, make_state g ~backend:b ~seed)) backends
  in
  (* On every scenario: bit-identity across backends, of the step fold
     and of apply_failures in drawn order; and the step fold (which lands
     on the canonical state) = apply_failures in canonical order. *)
  let dense_st = List.assoc Routing.Backend.Dense states in
  List.iter
    (fun links ->
      let reference = fold_scenario dense_st links in
      let directed =
        List.concat_map
          (fun e -> match G.reverse_link g e with Some r -> [ e; r ] | None -> [ e ])
          links
      in
      let drawn = Reconfig.apply_failures dense_st directed in
      let canonical = Scenario.links (Scenario.of_physical g links) in
      List.iter
        (fun (b, st) ->
          let what s = Printf.sprintf "%s %s %s" name (Routing.Backend.to_string b) s in
          check (what "folded state")
            (Reconfig.states_bit_identical reference (fold_scenario st links));
          check (what "canonical apply_failures fold")
            (Reconfig.states_bit_identical reference
               (Reconfig.apply_failures st canonical));
          check (what "drawn-order apply_failures fold")
            (Reconfig.states_bit_identical drawn (Reconfig.apply_failures st directed)))
        states)
    scens;
  let rows =
    List.map
      (fun (b, st) ->
        let t_step = bench_step ~repeats st scens in
        let t_sweep = bench_sweep ~repeats st scens in
        Printf.printf
          "  %-6s %-6s: step %8.2f scen/s | sweep(mlu) %8.2f scen/s\n%!" name
          (Routing.Backend.to_string b)
          (float_of_int nscen /. t_step)
          (float_of_int nscen /. t_sweep);
        (b, t_step, t_sweep))
      states
  in
  let time_of b = List.find (fun (b', _, _) -> b' = b) rows in
  let _, td_step, td_sweep = time_of Routing.Backend.Dense in
  let _, ts_step, ts_sweep = time_of Routing.Backend.Sparse in
  let speedup = td_step /. Float.max ts_step 1e-9 in
  Printf.printf "  %-6s sparse step speedup over dense: %.1fx\n%!" name speedup;
  ( speedup,
    J.Obj
      [
        ("topology", J.String name);
        ("nodes", J.Int (G.num_nodes g));
        ("links", J.Int (G.num_links g));
        ("scenarios", J.Int nscen);
        ("bit_identical", J.Bool true);
        ( "backends",
          J.List
            (List.map
               (fun (b, t_step, t_sweep) ->
                 J.Obj
                   [
                     ("backend", J.String (Routing.Backend.to_string b));
                     ("step_seconds", J.Float t_step);
                     ("sweep_seconds", J.Float t_sweep);
                   ])
               rows) );
        ("sparse_step_speedup", J.Float speedup);
        ("sparse_sweep_speedup", J.Float (td_sweep /. Float.max ts_sweep 1e-9));
      ] )

let pop36 () =
  Topology.random ~seed:36 ~nodes:36 ~undirected_links:80
    ~capacities:[ (10.0, 0.5); (40.0, 0.3); (100.0, 0.2) ]
    ()

let run () =
  H.section "Online reconfiguration: routing storage backends (dense/sparse/auto)";
  if !H.smoke then begin
    (* Tiny end-to-end pass for @bench-check: correctness checks only. *)
    let _, _ = one_topology ~repeats:1 ~seed:7 ~nscen:4 "abilene" (Topology.abilene ()) in
    let module M = R3_util.Metrics in
    check "metrics: sparse rows recorded" (M.counter_value "r3.routing.sparse_rows" > 0);
    check "metrics: dense rows recorded" (M.counter_value "r3.routing.dense_rows" > 0);
    check "metrics: cow ratio recorded"
      (M.gauge_value (M.gauge "r3.reconfig.cow_shared_ratio") <> None);
    H.note "smoke mode: no %s written" output_path
  end
  else begin
    let repeats = 3 in
    let _, abilene = one_topology ~repeats ~seed:7 ~nscen:60 "abilene" (Topology.abilene ()) in
    let speedup, pop = one_topology ~repeats ~seed:7 ~nscen:60 "pop36" (pop36 ()) in
    (* The >= 2x sparse-step target is recorded in the JSON for offline
       tracking; hard-failing on a wall-clock ratio turns a loaded or
       small-core runner into a spurious bench failure, so the assertion
       is opt-in (R3_BENCH_ENFORCE_SPEEDUP=1). *)
    if speedup < 2.0 then
      H.note "WARNING: pop36 sparse step speedup %.2fx is below the 2x target"
        speedup;
    (match Sys.getenv_opt "R3_BENCH_ENFORCE_SPEEDUP" with
    | Some ("" | "0") | None -> ()
    | Some _ -> check "pop36 sparse >= 2x dense on step" (speedup >= 2.0));
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
