(* Tests for the event-driven online reconfiguration runtime and the
   Reconfig fail/recover scenario-delta API.

   The load-bearing property (the ISSUE's acceptance bar): for randomized
   delivery schedules — including duplicated, reordered, and
   dropped-then-retried notifications — every router's terminal state is
   bit-identical to the batch application of the final failed set, and to
   the naive dense reference fold of that set; and with a real
   (LP-computed) plan whose MLU* <= 1, the quiescent MLU stays within the
   plan bound. *)

module G = R3_net.Graph
module Routing = R3_net.Routing
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Reconfig = R3_core.Reconfig
module Scenario = R3_core.Scenario
module Online = R3_sim.Online
module Fib = R3_mplsff.Fib
module Dense_ref = R3_check.Dense_ref

let make_state ?(seed = 11) g =
  let rng = R3_util.Prng.create seed in
  let tm = Traffic.gravity rng g ~load_factor:0.3 () in
  let pairs, demands = Traffic.commodities tm in
  let weights = R3_net.Ospf.unit_weights g in
  let base = R3_net.Ospf.routing g ~weights ~pairs () in
  let protection = R3_baselines.Cspf_detour.protection g in
  Reconfig.make g ~pairs ~demands ~base ~protection

let gen20 () =
  Topology.random ~seed:20 ~nodes:20 ~undirected_links:45
    ~capacities:[ (10.0, 0.5); (40.0, 0.5) ]
    ()

let sc g reps = Scenario.of_physical g reps

let bit_identical = Reconfig.states_bit_identical

(* ---- fail / recover (scenario-delta API) ---- *)

let test_fail_matches_directed_folds () =
  let g = Topology.abilene () in
  let st = make_state g in
  let e = 3 in
  let one = Reconfig.fail st (sc g [ e ]) in
  let r = Option.get (G.reverse_link g e) in
  Alcotest.(check bool) "fail = apply_failures over both directions" true
    (bit_identical one (Reconfig.apply_failures st [ e; r ]));
  Alcotest.(check bool) "apply_failures one at a time = fail" true
    (bit_identical one
       (Reconfig.apply_failures (Reconfig.apply_failures st [ e ]) [ r ]))

let test_fail_idempotent () =
  let g = Topology.abilene () in
  let st = make_state g in
  let once = Reconfig.fail st (sc g [ 0; 5 ]) in
  let twice = Reconfig.fail once (sc g [ 0; 5 ]) in
  Alcotest.(check bool) "re-failing is a no-op" true (bit_identical once twice)

let test_recover_restores_pristine () =
  let g = Topology.abilene () in
  let st = make_state g in
  let failed = Reconfig.fail st (sc g [ 2; 7 ]) in
  let back = Reconfig.recover failed (sc g [ 2; 7 ]) in
  Alcotest.(check bool) "recover all = pristine bits" true (bit_identical st back)

let test_recover_replays_remaining () =
  let g = Topology.abilene () in
  let st = make_state g in
  let failed = Reconfig.fail st (sc g [ 2; 7; 11 ]) in
  let partial = Reconfig.recover failed (sc g [ 7 ]) in
  Alcotest.(check bool) "recover subset = batch of remaining" true
    (bit_identical partial (Reconfig.fail st (sc g [ 2; 11 ])));
  (* recovering a link that is up is a no-op *)
  let noop = Reconfig.recover failed (sc g [ 4 ]) in
  Alcotest.(check bool) "recover of up link is no-op" true
    (bit_identical noop failed)

let test_fail_order_canonical () =
  (* Whatever order deltas arrive in, equal failed sets have equal bits —
     the property the online engine's memoization rests on. *)
  let g = gen20 () in
  let st = make_state g in
  let a = Reconfig.fail (Reconfig.fail st (sc g [ 9 ])) (sc g [ 1 ]) in
  let b = Reconfig.fail (Reconfig.fail st (sc g [ 1 ])) (sc g [ 9 ]) in
  let c = Reconfig.fail st (sc g [ 9; 1 ]) in
  Alcotest.(check bool) "fail commutes to canonical bits (a=c)" true
    (bit_identical a c);
  Alcotest.(check bool) "fail commutes to canonical bits (b=c)" true
    (bit_identical b c)

(* ---- schedule generator ---- *)

let test_generate_deterministic () =
  let g = Topology.abilene () in
  let s1 = Online.generate g ~seed:5 ~events:30 ~max_concurrent:3 () in
  let s2 = Online.generate g ~seed:5 ~events:30 ~max_concurrent:3 () in
  Alcotest.(check bool) "equal seeds, equal schedules" true (s1 = s2);
  let s3 = Online.generate g ~seed:6 ~events:30 ~max_concurrent:3 () in
  Alcotest.(check bool) "different seed, different schedule" true (s1 <> s3);
  (* replay: concurrency cap respected, no double-fail / spurious recover *)
  let down = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      (match ev.Online.kind with
      | Online.Fail ->
        Alcotest.(check bool) "fail of up link" false
          (Hashtbl.mem down ev.Online.link);
        Hashtbl.replace down ev.Online.link ()
      | Online.Recover ->
        Alcotest.(check bool) "recover of down link" true
          (Hashtbl.mem down ev.Online.link);
        Hashtbl.remove down ev.Online.link);
      Alcotest.(check bool) "concurrency cap" true (Hashtbl.length down <= 3))
    s1

(* ---- the online engine ---- *)

let faulty = Online.Channel.faulty Online.Channel.default_faults

let test_ideal_channel_delivers_once () =
  let g = Topology.abilene () in
  let root = make_state g in
  let schedule = Online.generate g ~seed:1 ~events:15 () in
  let o = Online.run ~seed:1 root schedule in
  let s = o.Online.stats in
  Alcotest.(check int) "one copy per (event, router)"
    (s.Online.events * G.num_nodes g)
    s.Online.deliveries;
  Alcotest.(check int) "ideal channel drops nothing" 0 s.Online.drops;
  Alcotest.(check bool) "order independent" true o.Online.order_independent;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "every event converged" false (Float.is_nan c);
      (* detection alone takes 30 ms, so convergence can't beat it *)
      Alcotest.(check bool) "convergence >= detection latency" true (c >= 30.0))
    s.Online.convergence_ms

(* The acceptance-bar property: >= 100 seeded random schedules across
   Abilene and a generated topology, fault-injected channel (duplicates,
   reordering, drops with retry), terminal state bit-identical to batch. *)
let test_order_independence_property () =
  List.iter
    (fun g ->
      let root = make_state g in
      for seed = 0 to 59 do
        let schedule =
          Online.generate g ~seed ~events:12 ~max_concurrent:3 ()
        in
        let o = Online.run ~channel:faulty ~seed root schedule in
        if not o.Online.order_independent then
          Alcotest.failf "seed %d: terminal state diverged from batch" seed
      done)
    [ Topology.abilene (); gen20 () ]

let test_terminal_matches_reference () =
  let g = gen20 () in
  let root = make_state g in
  for seed = 0 to 9 do
    let schedule = Online.generate g ~seed ~events:10 ~max_concurrent:3 () in
    let o = Online.run ~channel:faulty ~seed root schedule in
    Alcotest.(check bool) "order independent" true o.Online.order_independent;
    let failed = Array.make (G.num_links g) false in
    List.iter
      (fun ev ->
        let down = ev.Online.kind = Online.Fail in
        List.iter
          (fun e -> failed.(e) <- down)
          (Scenario.links (Scenario.of_links g [ ev.Online.link ])))
      schedule;
    match Dense_ref.mismatch o.Online.terminal (Dense_ref.of_failed root failed) with
    | None -> ()
    | Some d -> Alcotest.failf "seed %d: terminal state vs reference: %s" seed d
  done

let test_fib_maintenance () =
  let g = Topology.abilene () in
  let root = make_state g in
  for seed = 0 to 4 do
    let schedule = Online.generate g ~seed ~events:10 ~max_concurrent:2 () in
    let o = Online.run ~channel:faulty ~seed ~fibs:true root schedule in
    Alcotest.(check bool) "per-router FIB updates land on full rebuild" true
      o.Online.fib_consistent
  done;
  (* and directly: update_router order does not matter *)
  let st = Reconfig.fail root (sc g [ 4; 9 ]) in
  let full = Fib.of_protection g st.Reconfig.protection in
  let n = G.num_nodes g in
  let fib_root = Fib.of_protection g root.Reconfig.protection in
  let forward = ref fib_root in
  for v = 0 to n - 1 do
    forward := Fib.update_router !forward ~router:v st.Reconfig.protection
  done;
  let backward = ref fib_root in
  for v = n - 1 downto 0 do
    backward := Fib.update_router !backward ~router:v st.Reconfig.protection
  done;
  Alcotest.(check bool) "ascending order = rebuild" true (Fib.equal !forward full);
  Alcotest.(check bool) "descending order = rebuild" true (Fib.equal !backward full);
  let router_table f v = { f with Fib.fibs = [| f.Fib.fibs.(v) |] } in
  (* Routers caught up to one routing hold one copy of it, and a router
     whose entries the failures left alone keeps its table. *)
  Alcotest.(check bool) "one source copy per routing" true
    (Array.for_all (fun s -> s == !forward.Fib.sources.(0)) !forward.Fib.sources);
  let kept = ref 0 in
  for v = 0 to n - 1 do
    if Fib.equal (router_table fib_root v) (router_table full v) then begin
      incr kept;
      Alcotest.(check bool) "unchanged table kept" true
        (!forward.Fib.fibs.(v) == fib_root.Fib.fibs.(v))
    end
  done;
  Alcotest.(check bool) "some table kept" true (!kept > 0);
  (* A routing written in place after a FIB was derived from it: the
     FIB's source copy sealed it, so the write un-shares the row and the
     update sees it. Built fresh, so the routing owns its rows. *)
  let p = R3_baselines.Cspf_detour.protection g in
  let fib0 = Fib.of_protection g p in
  Alcotest.(check bool) "no row changed: the same FIB back" true
    (Fib.update_router fib0 ~router:0 p == fib0);
  let e =
    Routing.fold_row p 0 ~init:(-1) ~f:(fun acc e _ -> if e <> 0 && acc < 0 then e else acc)
  in
  let v = G.src g e in
  (* Link 0's detour leaves [v] over [e] alone: dropping it removes the
     label from [v]'s table. *)
  Routing.set p 0 e 0.0;
  let fib1 = Fib.update_router fib0 ~router:v p in
  Alcotest.(check bool) "in-place write seen by the update" true
    (Fib.equal (router_table fib1 v) (router_table (Fib.of_protection g p) v));
  (* Every router's source was copied from [p], before the write: the
     updated router takes a fresh copy, not one without the write. *)
  Alcotest.(check bool) "source holds the written row" true
    (Routing.shares_row fib1.Fib.sources.(v) p 0);
  (* Step by step over seeded fail/recover sequences: at every step each
     router catches up with probability 3/4, in a seeded order, so some
     update across several steps at once. After every step, every
     router's table equals its table in the full rebuild of the state it
     last caught up to. *)
  List.iter
    (fun g ->
      let root = make_state g in
      let n = G.num_nodes g in
      for seed = 0 to 3 do
        let rng = R3_util.Prng.create (100 + seed) in
        let fib = ref (Fib.of_protection g root.Reconfig.protection) in
        let rebuilt = Array.make n (Fib.of_protection g root.Reconfig.protection) in
        let st = ref root in
        let order = Array.init n Fun.id in
        let step ~all =
          let full = Fib.of_protection g !st.Reconfig.protection in
          R3_util.Prng.shuffle rng order;
          Array.iter
            (fun v ->
              if all || R3_util.Prng.bool rng 0.75 then begin
                fib := Fib.update_router !fib ~router:v !st.Reconfig.protection;
                rebuilt.(v) <- full
              end)
            order;
          for v = 0 to n - 1 do
            if not (Fib.equal (router_table !fib v) (router_table rebuilt.(v) v)) then
              Alcotest.failf "seed %d: router %d's table differs from the rebuild" seed v
          done
        in
        List.iter
          (fun ev ->
            let s = sc g [ ev.Online.link ] in
            (st :=
               match ev.Online.kind with
               | Online.Fail -> Reconfig.fail !st s
               | Online.Recover -> Reconfig.recover !st s);
            step ~all:false)
          (Online.generate g ~seed ~events:12 ~max_concurrent:3 ());
        step ~all:true;
        Alcotest.(check bool) "caught-up FIB = rebuild" true
          (Fib.equal !fib (Fib.of_protection g !st.Reconfig.protection))
      done)
    [ g; gen20 () ]

(* With an LP-computed plan whose MLU* <= 1, the quiescent MLU after any
   generated schedule (within the f=1 physical budget) obeys Theorem 2.
   f=1 because Abilene has degree-2 PoPs: a 2-physical-failure envelope
   contains disconnecting scenarios, whose virtual demand pushes MLU*
   above 1 at any load. *)
let test_quiescent_mlu_bound () =
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 3 in
  let tm = Traffic.gravity rng g ~load_factor:0.08 () in
  let pairs, _ = Traffic.commodities tm in
  let base =
    R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs ()
  in
  let f = 1 in
  let cfg =
    {
      (R3_core.Offline.default_config ~f) with
      R3_core.Offline.solve_method = R3_core.Offline.Constraint_gen;
    }
  in
  let srlgs = R3_core.Structured.physical_srlgs g in
  match
    R3_core.Structured.compute cfg g tm
      { R3_core.Structured.srlgs; mlgs = []; k = f }
      (R3_core.Offline.Fixed base)
  with
  | Error m -> Alcotest.failf "precompute failed: %s" m
  | Ok plan ->
    Alcotest.(check bool) "fixture plan is congestion-free" true
      (plan.R3_core.Offline.mlu <= 1.0);
    let root = Reconfig.of_plan plan in
    for seed = 0 to 4 do
      let schedule = Online.generate g ~seed ~events:8 ~max_concurrent:f () in
      let o =
        Online.run ~channel:faulty ~seed ~mlu_bound:plan.R3_core.Offline.mlu
          root schedule
      in
      Alcotest.(check bool) "order independent" true o.Online.order_independent;
      if o.Online.quiescent_mlu > 1.0 +. 1e-9 then
        Alcotest.failf "seed %d: quiescent MLU %.6f breaks the plan bound" seed
          o.Online.quiescent_mlu
    done

let test_stats_and_metrics () =
  let g = Topology.abilene () in
  let root = make_state g in
  let schedule = Online.generate g ~seed:2 ~events:20 ~max_concurrent:3 () in
  let o = Online.run ~channel:faulty ~seed:2 root schedule in
  let s = o.Online.stats in
  Alcotest.(check bool) "duplicates were delivered" true
    (s.Online.deliveries > s.Online.events * G.num_nodes g);
  Alcotest.(check bool) "stale copies ignored" true (s.Online.stale > 0);
  Alcotest.(check bool) "drops were retried" true
    (s.Online.drops > 0 && s.Online.retries = s.Online.drops);
  Alcotest.(check bool) "states are shared across routers" true
    (s.Online.distinct_states < s.Online.deliveries);
  Alcotest.(check bool) "transient peak >= quiescent" true
    (s.Online.transient_mlu_peak >= o.Online.quiescent_mlu -. 1e-12);
  let module M = R3_util.Metrics in
  Alcotest.(check bool) "r3.online.events counted" true
    (M.counter_value "r3.online.events" > 0);
  Alcotest.(check bool) "r3.online.deliveries counted" true
    (M.counter_value "r3.online.deliveries" > 0)

(* ---- fast paths of the bit-level state comparison ---- *)

let test_bit_identity_fast_paths () =
  let g = Topology.abilene () in
  let st = make_state g in
  let s27 = sc g [ 2; 7 ] in
  Alcotest.(check bool) "fail then recover = pristine" true
    (bit_identical st (Reconfig.recover (Reconfig.fail st s27) s27));
  Alcotest.(check bool) "different failed sets differ" false
    (bit_identical (Reconfig.fail st (sc g [ 2 ])) (Reconfig.fail st (sc g [ 7 ])));
  Alcotest.(check bool) "failed flags alone differ" false
    (bit_identical st { st with Reconfig.failed = (Reconfig.fail st s27).Reconfig.failed });
  (* The last row, so a comparison that stops early is caught. *)
  let base = Reconfig.base st in
  let k = Routing.num_commodities base - 1 in
  let row = Routing.row_dense base k in
  let nz = ref (-1) and z = ref (-1) in
  Array.iteri
    (fun e x ->
      if x <> 0.0 then (if !nz < 0 then nz := e) else if !z < 0 then z := e)
    row;
  (* A root state over an edited copy of [st]'s base. *)
  let with_base edit =
    let r = Reconfig.base st in
    edit r;
    Reconfig.make g ~pairs:st.Reconfig.pairs ~demands:st.Reconfig.demands ~base:r
      ~protection:st.Reconfig.protection
  in
  let nudged e r = Routing.set r k e (Float.succ (Routing.get r k e)) in
  Alcotest.(check bool) "nudged stored entry differs" false
    (bit_identical st (with_base (nudged !nz)));
  Alcotest.(check bool) "nudged zero entry differs" false
    (bit_identical st (with_base (nudged !z)));
  let p = Routing.copy st.Reconfig.protection in
  Routing.set p 0 0 (Float.succ (Routing.get p 0 0));
  Alcotest.(check bool) "nudged protection differs" false
    (bit_identical st { st with Reconfig.protection = p });
  Alcotest.(check bool) "the copies left the original's shared rows alone" true
    (bit_identical st (make_state g));
  let with_row v = with_base (fun r -> Routing.set_row_vec r k v) in
  let with_stored extra =
    (* row [k] plus an explicitly stored entry at [z] *)
    let entries = ref [] in
    Array.iteri
      (fun e x ->
        if e = !z then entries := (e, extra) :: !entries
        else if x <> 0.0 then entries := (e, x) :: !entries)
      row;
    let entries = Array.of_list (List.rev !entries) in
    with_row
      (R3_util.Rowvec.of_sorted (Array.map fst entries) (Array.map snd entries)
         (Array.length entries))
  in
  Alcotest.(check bool) "stored -0.0 vs absent differs" false
    (bit_identical st (with_stored (-0.0)));
  Alcotest.(check bool) "stored +0.0 = absent" true
    (bit_identical st (with_stored 0.0));
  (* Against the dense-image reference on every pair of a few states,
     equal and unequal, shared and unshared rows alike. *)
  let reference a b =
    let bits r = Array.map (Array.map Int64.bits_of_float) (Routing.to_dense_matrix r) in
    a.Reconfig.failed = b.Reconfig.failed
    && bits (Reconfig.base a) = bits (Reconfig.base b)
    && bits a.Reconfig.protection = bits b.Reconfig.protection
  in
  let states =
    let f2 = Reconfig.fail st (sc g [ 2 ]) in
    [ st; f2; Reconfig.fail f2 (sc g [ 7 ]); Reconfig.fail st s27;
      Reconfig.recover (Reconfig.fail st s27) (sc g [ 7 ]); with_stored (-0.0);
      with_stored 0.0 ]
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if bit_identical a b <> reference a b then
            Alcotest.failf "states %d and %d: comparison disagrees with the dense image" i j)
        states)
    states

let pop36 () =
  Topology.random ~seed:36 ~nodes:36 ~undirected_links:80
    ~capacities:[ (10.0, 0.5); (40.0, 0.3); (100.0, 0.2) ]
    ()

(* The terminal check compares states folded from one root: rows both
   share are skipped and the rest are read without allocating. *)
let test_bit_identity_allocation () =
  let g = pop36 () in
  let root = make_state g in
  let busiest = Routing.bottleneck g ~loads:(Reconfig.loads root) in
  let rep =
    match G.reverse_link g busiest with Some r when r < busiest -> r | _ -> busiest
  in
  let fail () = Reconfig.fail root (sc g [ rep ]) in
  let child = fail () and twin = fail () in
  let unshared = ref 0 in
  let cb = Reconfig.base child and tb = Reconfig.base twin in
  for k = 0 to Routing.num_commodities cb - 1 do
    if not (Routing.shares_row cb tb k) then incr unshared
  done;
  Alcotest.(check bool) "the failure touched base rows" true (!unshared > 0);
  let words f =
    let before = Gc.minor_words () in
    let r = f () in
    (r, Gc.minor_words () -. before)
  in
  let same, w = words (fun () -> Reconfig.states_bit_identical child twin) in
  Alcotest.(check bool) "twin folds are bit-identical" true same;
  if w >= 1e4 then Alcotest.failf "comparing twins allocated %.0f minor words" w;
  let differ, w =
    words (fun () ->
        Reconfig.states_bit_identical root { child with Reconfig.failed = root.Reconfig.failed })
  in
  Alcotest.(check bool) "root and child differ" false differ;
  if w >= 1e4 then Alcotest.failf "comparing root and child allocated %.0f minor words" w

(* On the ideal channel every head router hears its own link's events in
   event order, so the data plane steps through the schedule's failed
   sets one by one. *)
let test_ideal_channel_data_plane () =
  List.iter
    (fun g ->
      let root = make_state g in
      for seed = 0 to 4 do
        let events = Online.generate g ~seed ~events:20 ~max_concurrent:3 () in
        let s = (Online.run ~seed root events).Online.stats in
        let peak = ref (Reconfig.mlu root) and low = ref (Reconfig.delivered_fraction root) in
        let down = Hashtbl.create 8 in
        List.iter
          (fun ev ->
            (match ev.Online.kind with
            | Online.Fail -> Hashtbl.replace down ev.Online.link ()
            | Online.Recover -> Hashtbl.remove down ev.Online.link);
            let st = Reconfig.fail root (sc g (Hashtbl.fold (fun e () acc -> e :: acc) down [])) in
            let u = Reconfig.mlu st and d = Reconfig.delivered_fraction st in
            if u > !peak then peak := u;
            if d < !low then low := d)
          events;
        Alcotest.(check int64) "transient MLU peak bits"
          (Int64.bits_of_float !peak)
          (Int64.bits_of_float s.Online.transient_mlu_peak);
        Alcotest.(check int64) "min delivered bits"
          (Int64.bits_of_float !low)
          (Int64.bits_of_float s.Online.min_delivered)
      done)
    [ Topology.abilene (); gen20 () ]

let test_run_spans () =
  let module T = R3_util.Trace in
  let g = Topology.abilene () in
  let root = make_state g in
  let events = Online.generate g ~seed:3 ~events:10 () in
  let was = T.enabled () in
  T.set_enabled true;
  T.reset ();
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled was;
      T.reset ())
    (fun () ->
      ignore (Online.run ~channel:faulty ~seed:3 ~fibs:true root events);
      let spans = T.spans () in
      List.iter
        (fun name ->
          match List.filter (fun sp -> sp.T.name = name) spans with
          | [ sp ] ->
            Alcotest.(check (option string)) (name ^ " parent") (Some "online.run") sp.T.parent
          | l -> Alcotest.failf "%s recorded %d times" name (List.length l))
        [ "online.schedule"; "online.deliver"; "online.verify" ];
      match List.filter (fun sp -> sp.T.name = "online.run") spans with
      | [ run ] ->
        Alcotest.(check bool) "run attributes stay on online.run" true
          (List.mem_assoc "events" run.T.attrs && List.mem_assoc "states" run.T.attrs)
      | l -> Alcotest.failf "online.run recorded %d times" (List.length l))

(* ---- the folded load vector and the lazily folded base ---- *)

(* Largest per-link gap between two load vectors, relative to the
   largest load of the reference. *)
let rel_gap a b =
  let scale = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 b in
  let gap = ref 0.0 in
  Array.iteri (fun l x -> gap := Float.max !gap (Float.abs (x -. b.(l)))) a;
  if scale > 0.0 then !gap /. scale else !gap

let loads_of_base st =
  Routing.loads st.Reconfig.graph ~demands:st.Reconfig.demands (Reconfig.base st)

(* A Garg-Koenemann base spreads each row over many paths: at epsilon
   0.2 about 32 of pop36's 160 links per row (the benchmark's GK base, at
   0.1, stores 42.9; an OSPF base 5.2). *)
let gk_state g =
  let rng = R3_util.Prng.create 41 in
  let tm = Traffic.gravity rng g ~load_factor:0.3 () in
  let pairs, demands = Traffic.commodities tm in
  let _, base = R3_mcf.Concurrent_flow.min_mlu_routing g ~epsilon:0.2 ~pairs ~demands () in
  Reconfig.make g ~pairs ~demands ~base
    ~protection:(R3_baselines.Cspf_detour.protection g)

let phys_links g = R3_sim.Scenarios.physical_links g

(* Seeded fail/recover walks: after every step the folded vector and the
   MLU read from it match the loads of the (forced) base within 1e-12;
   at the root they are the same bits. *)
let test_loads_agree_with_base () =
  let bits a = Array.map Int64.bits_of_float a in
  List.iter
    (fun (name, root) ->
      let g = root.Reconfig.graph in
      Alcotest.(check (array int64)) (name ^ ": root loads bits")
        (bits (loads_of_base root)) (bits (Reconfig.loads root));
      Alcotest.(check int64) (name ^ ": root MLU bits")
        (Int64.bits_of_float (Routing.mlu g ~loads:(loads_of_base root)))
        (Int64.bits_of_float (Reconfig.mlu root));
      let phys = phys_links g in
      let rng = R3_util.Prng.create 7 in
      let st = ref root and down = ref [] in
      for step = 1 to 40 do
        (if !down <> [] && (List.length !down >= 3 || R3_util.Prng.bool rng 0.35) then begin
           let l = List.nth !down (R3_util.Prng.int rng (List.length !down)) in
           down := List.filter (( <> ) l) !down;
           st := Reconfig.recover !st (sc g [ l ])
         end
         else begin
           let l = phys.(R3_util.Prng.int rng (Array.length phys)) in
           if not (List.mem l !down) then down := l :: !down;
           st := Reconfig.fail !st (sc g [ l ])
         end);
        let want = loads_of_base !st in
        let gap = rel_gap (Reconfig.loads !st) want in
        if gap > 1e-12 then Alcotest.failf "%s step %d: loads off by %.3g relative" name step gap;
        let u = Reconfig.mlu !st and u' = Routing.mlu g ~loads:want in
        if Float.abs (u -. u') > 1e-12 *. u' then
          Alcotest.failf "%s step %d: MLU %.17g, base gives %.17g" name step u u'
      done)
    [
      ("abilene", make_state (Topology.abilene ()));
      ("gen20", make_state (gen20 ()));
      ("pop36 GK base", gk_state (pop36 ()));
    ]

(* Every path to one failed set folds the vector in canonical order. *)
let test_loads_path_independent () =
  let g = gen20 () in
  let root = make_state g in
  let phys = phys_links g in
  let a = phys.(3) and b = phys.(9) and c = phys.(17) and d = phys.(25) in
  let bits st = Array.map Int64.bits_of_float (Reconfig.loads st) in
  let batch = Reconfig.fail root (sc g [ a; b; c ]) in
  let fail_each st links = List.fold_left (fun st l -> Reconfig.fail st (sc g [ l ])) st links in
  List.iter
    (fun (what, st) -> Alcotest.(check (array int64)) what (bits batch) (bits st))
    [
      ("prefix-order fail", fail_each root [ a; b; c ]);
      ("out-of-order fail (refold)", fail_each root [ c; a; b ]);
      ("recover", Reconfig.recover (Reconfig.fail root (sc g [ a; b; c; d ])) (sc g [ d ]));
    ];
  for seed = 0 to 4 do
    let events = Online.generate g ~seed ~events:20 ~max_concurrent:3 () in
    let o = Online.run ~channel:faulty ~seed root events in
    let down = Hashtbl.create 8 in
    List.iter
      (fun ev ->
        match ev.Online.kind with
        | Online.Fail -> Hashtbl.replace down ev.Online.link ()
        | Online.Recover -> Hashtbl.remove down ev.Online.link)
      events;
    let final = Reconfig.fail root (sc g (Hashtbl.fold (fun e () acc -> e :: acc) down [])) in
    Alcotest.(check (array int64)) "Online.run terminal" (bits final) (bits o.Online.terminal)
  done

let base_forces () = R3_util.Metrics.counter_value "r3.reconfig.base_forces"

(* A one-physical-failure fail from the root folds about 18 protection
   rows and one vector, never the 1,260 base rows. *)
let test_fail_leaves_base_pending () =
  let g = pop36 () in
  let phys = phys_links g in
  let root = make_state g in
  let forces = base_forces () in
  let words = ref 0.0 in
  Array.iter
    (fun l ->
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (Reconfig.fail root (sc g [ l ])));
      words := !words +. (Gc.minor_words () -. before))
    phys;
  let mean = !words /. float_of_int (Array.length phys) in
  if mean >= 4e3 then
    Alcotest.failf "a one-failure fail allocated %.0f minor words on average" mean;
  Alcotest.(check int) "no base was folded" forces (base_forces ())

let test_late_force_chain () =
  let g = pop36 () in
  let root = make_state g in
  let phys = phys_links g in
  let links = [ phys.(4); phys.(30); phys.(61) ] in
  let eager =
    List.fold_left
      (fun st l ->
        let st = Reconfig.fail st (sc g [ l ]) in
        ignore (Reconfig.base st);
        st)
      root links
  in
  let late = List.fold_left (fun st l -> Reconfig.fail st (sc g [ l ])) root links in
  let forces = base_forces () in
  let r = Reconfig.base late in
  Alcotest.(check bool) "late force = forcing at every step" true
    (Routing.bits_equal r (Reconfig.base eager));
  Alcotest.(check int) "the chain's six directed folds ran on the late read" 6
    (base_forces () - forces);
  let forces = base_forces () in
  ignore (Reconfig.base late);
  Alcotest.(check int) "a forced base is not folded again" forces (base_forces ())

let test_concurrent_force () =
  let g = pop36 () in
  let root = make_state g in
  let phys = phys_links g in
  for trial = 0 to 7 do
    let links = [ phys.(trial); phys.(20 + trial); phys.(50 + trial) ] in
    let reference = Reconfig.base (Reconfig.fail root (sc g links)) in
    let st = List.fold_left (fun st l -> Reconfig.fail st (sc g [ l ])) root links in
    match Test_pool.with_domains 2 (fun () -> R3_util.Parallel.map Reconfig.base [| st; st |]) with
    | [| a; b |] ->
      if not (Routing.bits_equal a b && Routing.bits_equal a reference) then
        Alcotest.failf "trial %d: concurrently forced bases differ" trial
    | _ -> assert false
  done

let test_make_checks_shapes () =
  let g = Topology.abilene () in
  let st = make_state g in
  let pairs = st.Reconfig.pairs and demands = st.Reconfig.demands in
  let base = Reconfig.base st and protection = st.Reconfig.protection in
  let other = gen20 () in
  let rejects what f =
    match f () with
    | (_ : Reconfig.state) -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument msg ->
      if not (String.starts_with ~prefix:"Reconfig.make: " msg) then
        Alcotest.failf "%s raised %S" what msg
  in
  let make ?(pairs = pairs) ?(demands = demands) ?(base = base) ?(protection = protection) () =
    Reconfig.make g ~pairs ~demands ~base ~protection
  in
  rejects "10 demands" (fun () -> make ~demands:(Array.sub demands 0 10) ());
  rejects "one demand too many" (fun () -> make ~demands:(Array.append demands [| 1.0 |]) ());
  rejects "pairs without a base row" (fun () ->
      make ~pairs:(Array.append pairs [| (0, 1) |]) ~demands:(Array.append demands [| 1.0 |]) ());
  rejects "base over another graph" (fun () ->
      let pairs = [| (0, 1) |] in
      make ~pairs ~demands:[| 1.0 |] ~base:(Routing.create other ~pairs) ());
  rejects "protection without a row per link" (fun () ->
      make ~protection:(Routing.create g ~pairs:[| (0, 1) |]) ());
  rejects "protection over another graph" (fun () ->
      make
        ~protection:
          (Routing.create other ~pairs:(Array.init (G.num_links g) (fun _ -> (0, 1))))
        ());
  Alcotest.(check bool) "well-shaped inputs are accepted" true
    (Reconfig.states_bit_identical st (make ()))

(* The FIB and delivered-fraction readers take a row in one pass; on
   folded states their results must carry the bits of the per-link
   [Routing.get] lookups they replaced. *)
let test_single_pass_readers () =
  let bits x = Int64.bits_of_float x in
  List.iter
    (fun (name, g, picks) ->
      let root = make_state g in
      let phys = phys_links g in
      let states =
        root :: List.map (fun ps -> Reconfig.fail root (sc g (List.map (Array.get phys) ps))) picks
      in
      List.iteri
        (fun i st ->
          let what s = Printf.sprintf "%s state %d: %s" name i s in
          let p = st.Reconfig.protection in
          let fib = Fib.of_protection g p in
          for router = 0 to G.num_nodes g - 1 do
            for l = 0 to G.num_links g - 1 do
              let candidates =
                Array.to_list (G.out_links g router)
                |> List.filter (fun e -> e <> l && Routing.get p l e > 1e-12)
              in
              let total = List.fold_left (fun a e -> a +. Routing.get p l e) 0.0 candidates in
              let want =
                if total > 1e-12 then
                  List.map (fun e -> (e, bits (Routing.get p l e /. total))) candidates
                else []
              in
              let got =
                match Hashtbl.find_opt fib.Fib.fibs.(router).Fib.ilm (Fib.label_of_link l) with
                | None -> []
                | Some fwd ->
                  Array.to_list
                    (Array.map (fun n -> (n.Fib.out_link, bits n.Fib.ratio)) fwd.Fib.nhlfes)
              in
              if got <> want then
                Alcotest.failf "%s" (what (Printf.sprintf "label of link %d at router %d" l router))
            done
          done;
          let base = Reconfig.base st in
          for k = 0 to Routing.num_commodities base - 1 do
            let _, b = Routing.pair base k in
            let sum links = Array.fold_left (fun a e -> a +. Routing.get base k e) 0.0 links in
            let want = sum (G.in_links g b) -. sum (G.out_links g b) in
            if bits want <> bits (Routing.delivered g base k) then
              Alcotest.failf "%s" (what (Printf.sprintf "delivered fraction of commodity %d" k))
          done)
        states)
    [
      ("abilene", Topology.abilene (), [ [ 3 ]; [ 2; 7 ]; [ 0; 5; 11 ] ]);
      ("pop36", pop36 (), [ [ 4 ]; [ 30; 61 ]; [ 2; 17; 55 ] ]);
    ]

let suite =
  [
    Alcotest.test_case "fail matches directed folds" `Quick
      test_fail_matches_directed_folds;
    Alcotest.test_case "fail is idempotent" `Quick test_fail_idempotent;
    Alcotest.test_case "recover restores pristine bits" `Quick
      test_recover_restores_pristine;
    Alcotest.test_case "recover replays remaining failures" `Quick
      test_recover_replays_remaining;
    Alcotest.test_case "fail folds to canonical bits" `Quick
      test_fail_order_canonical;
    Alcotest.test_case "generate: deterministic, capped, consistent" `Quick
      test_generate_deterministic;
    Alcotest.test_case "ideal channel: one delivery per router" `Quick
      test_ideal_channel_delivers_once;
    Alcotest.test_case "order independence over 120 faulty schedules" `Slow
      test_order_independence_property;
    Alcotest.test_case "terminal state equals the dense reference" `Quick
      test_terminal_matches_reference;
    Alcotest.test_case "per-router FIB maintenance" `Quick test_fib_maintenance;
    Alcotest.test_case "quiescent MLU within plan bound (Theorem 2)" `Slow
      test_quiescent_mlu_bound;
    Alcotest.test_case "fault stats and r3.online.* metrics" `Quick
      test_stats_and_metrics;
    Alcotest.test_case "state comparison fast paths" `Quick
      test_bit_identity_fast_paths;
    Alcotest.test_case "state comparison allocates nothing (pop36)" `Quick
      test_bit_identity_allocation;
    Alcotest.test_case "ideal channel: data plane = batch states" `Quick
      test_ideal_channel_data_plane;
    Alcotest.test_case "run records schedule, deliver, verify spans" `Quick
      test_run_spans;
    Alcotest.test_case "load vector = loads of the base" `Quick
      test_loads_agree_with_base;
    Alcotest.test_case "load vector depends on the failed set alone" `Quick
      test_loads_path_independent;
    Alcotest.test_case "fail leaves the base pending (pop36)" `Quick
      test_fail_leaves_base_pending;
    Alcotest.test_case "late force of a pending chain" `Quick test_late_force_chain;
    Alcotest.test_case "two domains force one pending base" `Quick
      test_concurrent_force;
    Alcotest.test_case "make checks shapes" `Quick test_make_checks_shapes;
    Alcotest.test_case "single-pass FIB and delivered readers match lookups" `Quick
      test_single_pass_readers;
  ]
