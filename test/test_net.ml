(* Tests for the network substrate: graph invariants, Dijkstra, ECMP-OSPF
   routing validity, traffic generation, topology catalog counts. *)

module G = R3_net.Graph
module Spf = R3_net.Spf
module Ospf = R3_net.Ospf
module Routing = R3_net.Routing
module Traffic = R3_net.Traffic
module Topology = R3_net.Topology

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_graph_basics () =
  let g = Topology.abilene () in
  check_int "nodes" 11 (G.num_nodes g);
  check_int "links" 28 (G.num_links g);
  (* Every link has its reverse in Abilene. *)
  for e = 0 to G.num_links g - 1 do
    match G.reverse_link g e with
    | None -> Alcotest.failf "link %d has no reverse" e
    | Some r ->
      check_int "reverse endpoints" (G.src g e) (G.dst g r);
      check_int "reverse of reverse" e (match G.reverse_link g r with Some x -> x | None -> -1)
  done;
  check "connected" true (G.strongly_connected g ())

let test_find_link () =
  let g = Topology.abilene () in
  let sea = G.node_id g "Seattle" and sun = G.node_id g "Sunnyvale" in
  (match G.find_link g sea sun with
  | Some e ->
    check_int "src" sea (G.src g e);
    check_int "dst" sun (G.dst g e)
  | None -> Alcotest.fail "Seattle->Sunnyvale missing");
  check "no self link" true (G.find_link g sea sea = None)

let test_failures_and_reachability () =
  let g = Topology.abilene () in
  let id n = G.node_id g n in
  (* Cutting both Seattle links isolates Seattle. *)
  let e1 = Option.get (G.find_link g (id "Seattle") (id "Sunnyvale")) in
  let e2 = Option.get (G.find_link g (id "Seattle") (id "Denver")) in
  let failed = G.fail_bidir g [ e1; e2 ] in
  check "partitioned" true (G.partitions_pair g failed (id "Seattle") (id "NewYork"));
  check "rest connected" true (not (G.partitions_pair g failed (id "Denver") (id "NewYork")));
  check "not strongly connected" false (G.strongly_connected g ~failed ())

let test_parallel_links () =
  let g = Topology.parallel_links ~capacities:[ 1.0; 2.0; 3.0; 4.0 ] in
  check_int "links" 8 (G.num_links g);
  (* Each direction has 4 parallel links; each has a distinct reverse. *)
  let seen = Hashtbl.create 8 in
  for e = 0 to 7 do
    match G.reverse_link g e with
    | None -> Alcotest.failf "parallel link %d missing reverse" e
    | Some r ->
      check "reverse distinct" true (not (Hashtbl.mem seen r));
      Hashtbl.replace seen r ()
  done

(* Many parallel links between one node pair: the by-pair buckets must
   keep links in ascending index order (the build conses then reverses
   once; per-link append was quadratic here), so the k-th i->j link pairs
   with the k-th j->i link. *)
let test_many_parallel_links () =
  let p = 64 in
  let links =
    Array.init (2 * p) (fun k ->
        if k < p then (0, 1, float_of_int (k + 1), 1.0)
        else (1, 0, float_of_int (k - p + 1), 1.0))
  in
  let g = G.create ~node_names:[| "i"; "j" |] ~links in
  check_int "links" (2 * p) (G.num_links g);
  for i = 0 to p - 1 do
    check_int "in-order pairing" (p + i)
      (match G.reverse_link g i with Some r -> r | None -> -1);
    check_int "pairing is symmetric" i
      (match G.reverse_link g (p + i) with Some r -> r | None -> -1);
    Alcotest.(check (float 0.0)) "capacity kept"
      (float_of_int (i + 1)) (G.capacity g i)
  done

let test_dijkstra_simple () =
  let g = Topology.square () in
  let w = Ospf.unit_weights g in
  let d = Spf.distances g ~weights:w ~src:0 () in
  Alcotest.(check (float 1e-9)) "self" 0.0 d.(0);
  Alcotest.(check (float 1e-9)) "adjacent" 1.0 d.(1);
  Alcotest.(check (float 1e-9)) "diagonal" 1.0 d.(2)

let test_dijkstra_failed () =
  let g = Topology.square () in
  let w = Ospf.unit_weights g in
  let diag = Option.get (G.find_link g 0 2) in
  let failed = G.fail_bidir g [ diag ] in
  let d = Spf.distances g ~failed ~weights:w ~src:0 () in
  Alcotest.(check (float 1e-9)) "detour around diagonal" 2.0 d.(2)

let test_shortest_path () =
  let g = Topology.abilene () in
  let w = Ospf.unit_weights g in
  let src = G.node_id g "Seattle" and dst = G.node_id g "NewYork" in
  match Spf.shortest_path g ~weights:w ~src ~dst () with
  | None -> Alcotest.fail "no path Seattle->NewYork"
  | Some links ->
    check "path starts at src" true (G.src g (List.hd links) = src);
    let rec ends = function [ e ] -> G.dst g e | _ :: tl -> ends tl | [] -> -1 in
    check_int "path ends at dst" dst (ends links);
    (* consecutive links chain *)
    let rec chained = function
      | a :: b :: tl -> G.dst g a = G.src g b && chained (b :: tl)
      | _ -> true
    in
    check "chained" true (chained links)

let valid_routing g ?failed ?partial t =
  match Routing.validate g ?failed ?partial t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let all_pairs g =
  let n = G.num_nodes g in
  let acc = ref [] in
  for a = n - 1 downto 0 do
    for b = n - 1 downto 0 do
      if a <> b then acc := (a, b) :: !acc
    done
  done;
  Array.of_list !acc

let test_ospf_validity () =
  let g = Topology.abilene () in
  let pairs = all_pairs g in
  let t = Ospf.routing g ~weights:(Ospf.unit_weights g) ~pairs () in
  valid_routing g t

let test_ospf_validity_under_failure () =
  let g = Topology.abilene () in
  let id n = G.node_id g n in
  let e = Option.get (G.find_link g (id "KansasCity") (id "Houston")) in
  let failed = G.fail_bidir g [ e ] in
  let pairs = all_pairs g in
  let t = Ospf.routing g ~failed ~weights:(Ospf.unit_weights g) ~pairs () in
  valid_routing g ~failed t

let test_ospf_ecmp_split () =
  (* In the square with unit weights there are two equal paths a->c
     (direct diagonal is 1 hop; a-b-c is 2) so no split; craft a diamond. *)
  let g =
    G.create
      ~node_names:[| "s"; "u"; "v"; "t" |]
      ~links:
        [|
          (0, 1, 10.0, 1.0); (0, 2, 10.0, 1.0); (1, 3, 10.0, 1.0); (2, 3, 10.0, 1.0);
        |]
  in
  let t = Ospf.routing g ~weights:(Ospf.unit_weights g) ~pairs:[| (0, 3) |] () in
  valid_routing g t;
  Alcotest.(check (float 1e-9)) "upper split" 0.5 (Routing.get t (0) (0));
  Alcotest.(check (float 1e-9)) "lower split" 0.5 (Routing.get t (0) (1))

let test_routing_loads_mlu () =
  let g = Topology.triangle () in
  let pairs = [| (0, 1) |] in
  let t = Ospf.routing g ~weights:(Ospf.unit_weights g) ~pairs () in
  let loads = Routing.loads g ~demands:[| 5.0 |] t in
  let e01 = Option.get (G.find_link g 0 1) in
  Alcotest.(check (float 1e-9)) "direct load" 5.0 loads.(e01);
  Alcotest.(check (float 1e-9)) "mlu" 0.5 (Routing.mlu g ~loads)

let test_gravity_traffic () =
  let g = Topology.usisp_like () in
  let rng = R3_util.Prng.create 42 in
  let tm = Traffic.gravity rng g ~load_factor:0.4 () in
  check "positive total" true (Traffic.total tm > 0.0);
  let n = G.num_nodes g in
  for a = 0 to n - 1 do
    Alcotest.(check (float 0.0)) "zero diagonal" 0.0 tm.(a).(a);
    for b = 0 to n - 1 do
      check "nonnegative" true (tm.(a).(b) >= 0.0)
    done
  done;
  (* Determinism: same seed gives the same matrix. *)
  let tm2 = Traffic.gravity (R3_util.Prng.create 42) g ~load_factor:0.4 () in
  check "deterministic" true (tm = tm2)

let test_diurnal () =
  let peak = Traffic.diurnal_factor ~interval:14 in
  let trough = Traffic.diurnal_factor ~interval:2 in
  check "peak above trough" true (peak > trough);
  check "bounded" true (peak <= 1.0 +. 1e-9 && trough >= 0.3)

let test_split3 () =
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 7 in
  let tm = Traffic.gravity rng g ~load_factor:0.5 () in
  let t1, t2, t3 = Traffic.split3 rng tm ~p1:0.15 ~p2:0.25 in
  let recombined = Traffic.add (Traffic.add t1 t2) t3 in
  let n = G.num_nodes g in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if Float.abs (recombined.(a).(b) -. tm.(a).(b)) > 1e-9 *. (1.0 +. tm.(a).(b))
      then Alcotest.failf "split3 does not recombine at (%d,%d)" a b
    done
  done

let test_catalog_counts () =
  let expect = [ ("abilene", 11, 28); ("level3", 17, 72); ("sbc", 19, 70);
                 ("uunet", 47, 336); ("generated", 100, 460); ("usisp", 14, 48) ] in
  List.iter
    (fun (tag, nn, nl) ->
      match Topology.find tag with
      | None -> Alcotest.failf "missing topology %s" tag
      | Some { graph; _ } ->
        check_int (tag ^ " nodes") nn (G.num_nodes graph);
        check_int (tag ^ " dlinks") nl (G.num_links graph);
        check (tag ^ " connected") true (G.strongly_connected graph ()))
    expect

let test_srlg_groups () =
  let g = Topology.usisp_like () in
  let srlgs = Topology.synthetic_srlgs ~seed:5 g ~count:10 in
  check "got groups" true (List.length srlgs > 0);
  List.iter
    (fun grp ->
      check "nonempty" true (grp <> []);
      (* closed under reversal *)
      List.iter
        (fun e ->
          match G.reverse_link g e with
          | Some r -> check "reverse in group" true (List.mem r grp)
          | None -> ())
        grp)
    srlgs

(* OSPF routings are always valid on random connected topologies. *)
let ospf_validity_prop =
  QCheck.Test.make ~count:40 ~name:"OSPF ECMP routing is always valid"
    QCheck.(pair (int_bound 5_000) (int_range 5 14))
    (fun (seed, n) ->
      let g =
        Topology.random ~seed ~nodes:n
          ~undirected_links:(Int.min (n * (n - 1) / 2) (n + (n / 2)))
          ~capacities:[ (100.0, 1.0) ] ()
      in
      let pairs = all_pairs g in
      let t = Ospf.routing g ~weights:(Ospf.unit_weights g) ~pairs () in
      match Routing.validate g t with Ok () -> true | Error _ -> false)

(* Under any single bidirectional failure, OSPF reconvergence remains valid
   (with partial rows allowed for partitioned pairs). *)
let ospf_failure_prop =
  QCheck.Test.make ~count:40 ~name:"OSPF reconvergence valid under failures"
    QCheck.(pair (int_bound 5_000) (int_bound 27))
    (fun (seed, e) ->
      let g = Topology.abilene () in
      let rng = R3_util.Prng.create seed in
      let e2 = R3_util.Prng.int rng 28 in
      let failed = G.fail_bidir g [ e; e2 ] in
      let pairs = all_pairs g in
      let t = Ospf.routing g ~failed ~weights:(Ospf.unit_weights g) ~pairs () in
      match Routing.validate g ~failed ~partial:true t with
      | Ok () -> true
      | Error _ -> false)


(* The ECMP split as [Ospf.routing] computed it per pair before it built
   one distance order and one next-hop table per destination: for every
   pair, sort the nodes by distance to the destination, filter each
   node's out-links against the DAG, and push one unit down. *)
let reference_ospf g ~failed ~weights ~pairs =
  let n = G.num_nodes g and m = G.num_links g in
  let on_dag dist_to e =
    (not failed.(e))
    && dist_to.(G.src g e) < infinity
    && dist_to.(G.dst g e) < infinity
    && Float.abs (weights.(e) +. dist_to.(G.dst g e) -. dist_to.(G.src g e))
       <= 1e-9 *. (1.0 +. dist_to.(G.src g e))
  in
  let ecmp_fractions dist_to ~a ~dst row =
    let node_flow = Array.make n 0.0 in
    node_flow.(a) <- 1.0;
    let order = Array.init n (fun v -> v) in
    Array.sort (fun u v -> Float.compare dist_to.(v) dist_to.(u)) order;
    Array.iter
      (fun v ->
        if node_flow.(v) > 0.0 && v <> dst && dist_to.(v) < infinity then begin
          let hops = Array.to_list (G.out_links g v) |> List.filter (on_dag dist_to) in
          let k = List.length hops in
          if k > 0 then begin
            let share = node_flow.(v) /. float_of_int k in
            List.iter
              (fun e ->
                row.(e) <- row.(e) +. share;
                let w = G.dst g e in
                node_flow.(w) <- node_flow.(w) +. share)
              hops
          end
        end)
      order
  in
  let t = Routing.create g ~pairs in
  Array.iteri
    (fun k (a, b) ->
      let dist_to = Spf.distances_to g ~failed ~weights ~dst:b () in
      if dist_to.(a) < infinity then begin
        let row = Array.make m 0.0 in
        ecmp_fractions dist_to ~a ~dst:b row;
        Routing.set_row_dense t k row
      end)
    pairs;
  t

(* Integer weights make equal-cost ties common; failures sometimes
   partition the graph. *)
let test_ospf_matches_reference () =
  let rng = R3_util.Prng.create 77 in
  let same name g ~failed ~weights ~pairs =
    let got = Ospf.routing g ~failed ~weights ~pairs () in
    if not (Routing.bits_equal got (reference_ospf g ~failed ~weights ~pairs)) then
      Alcotest.failf "%s: Ospf.routing differs from the per-pair reference" name
  in
  let partitions = ref 0 in
  for i = 1 to 60 do
    let n = 4 + R3_util.Prng.int rng 11 in
    (* Sparse to complete: dense graphs give nodes several equal-cost
       predecessors, where the order of the additions shows. *)
    let g =
      Topology.random ~seed:(R3_util.Prng.bits rng) ~nodes:n
        ~undirected_links:(n - 1 + R3_util.Prng.int rng (((n - 1) * (n - 2) / 2) + 1))
        ~capacities:[ (10.0, 0.5); (40.0, 0.5) ] ()
    in
    let weights =
      Array.init (G.num_links g) (fun _ -> float_of_int (1 + R3_util.Prng.int rng 2))
    in
    let down = List.init (R3_util.Prng.int rng 4) (fun _ -> R3_util.Prng.int rng (G.num_links g)) in
    let failed = G.fail_bidir g down in
    if not (G.strongly_connected g ~failed ()) then incr partitions;
    same (Printf.sprintf "random graph %d" i) g ~failed ~weights ~pairs:(all_pairs g)
  done;
  check "some failure sets partition" true (!partitions > 0);
  for c = 2 to 5 do
    let g = Topology.parallel_links ~capacities:(List.init c (fun i -> 10.0 *. float_of_int (i + 1))) in
    let weights =
      Array.init (G.num_links g) (fun _ -> float_of_int (1 + R3_util.Prng.int rng 2))
    in
    let pairs = [| (0, 1); (1, 0) |] in
    same (Printf.sprintf "%d parallel links" c) g ~failed:(G.no_failures g) ~weights ~pairs;
    same
      (Printf.sprintf "%d parallel links, one down" c)
      g ~failed:(G.fail_bidir g [ R3_util.Prng.int rng (G.num_links g) ]) ~weights ~pairs;
    same
      (Printf.sprintf "%d parallel links, all down" c)
      g ~failed:(G.fail_links g (List.init (G.num_links g) Fun.id)) ~weights ~pairs
  done

(* ---- flow decomposition (paper section 4.1) ---- *)

module Fd = R3_net.Flow_decompose

let test_decompose_single_path () =
  let g = Topology.triangle () in
  let t = Ospf.routing g ~weights:(Ospf.unit_weights g) ~pairs:[| (0, 1) |] () in
  let paths, circulation = Fd.decompose g t 0 in
  Alcotest.(check int) "one path" 1 (List.length paths);
  Alcotest.(check (float 1e-9)) "no circulation" 0.0 circulation;
  let p = List.hd paths in
  Alcotest.(check (float 1e-9)) "full weight" 1.0 p.Fd.weight

let test_decompose_ecmp_split () =
  let g =
    G.create
      ~node_names:[| "s"; "u"; "v"; "t" |]
      ~links:
        [| (0, 1, 10.0, 1.0); (0, 2, 10.0, 1.0); (1, 3, 10.0, 1.0); (2, 3, 10.0, 1.0) |]
  in
  let t = Ospf.routing g ~weights:(Ospf.unit_weights g) ~pairs:[| (0, 3) |] () in
  let paths, _ = Fd.decompose g t 0 in
  Alcotest.(check int) "two paths" 2 (List.length paths);
  let total = List.fold_left (fun a p -> a +. p.Fd.weight) 0.0 paths in
  Alcotest.(check (float 1e-9)) "weights sum to 1" 1.0 total;
  (* recomposition reproduces the fractions *)
  let frac = Fd.recompose g paths in
  Array.iteri
    (fun e v ->
      if Float.abs (v -. (Routing.get t (0) (e))) > 1e-9 then
        Alcotest.failf "recompose mismatch on link %d" e)
    frac

let test_decompose_strips_cycles () =
  let g = Topology.triangle () in
  let t = Routing.create g ~pairs:[| (0, 1) |] in
  let direct = Option.get (G.find_link g 0 1) in
  Routing.set t (0) (direct) 1.0;
  (* add a pure cycle b->c->b on top *)
  let bc = Option.get (G.find_link g 1 2) and cb = Option.get (G.find_link g 2 1) in
  Routing.set t (0) (bc) 0.3;
  Routing.set t (0) (cb) 0.3;
  let paths, circulation = Fd.decompose g t 0 in
  Alcotest.(check bool) "cycle flow removed" true (circulation > 0.29);
  Alcotest.(check int) "single real path" 1 (List.length paths)

(* Decomposition weights always sum to the delivered fraction, on arbitrary
   OSPF routings over random topologies. *)
let decompose_total_prop =
  QCheck.Test.make ~count:30 ~name:"decomposition conserves delivered flow"
    QCheck.(pair (int_bound 2_000) (int_range 5 10))
    (fun (seed, n) ->
      let g =
        Topology.random ~seed ~nodes:n
          ~undirected_links:(Int.min (n * (n - 1) / 2) (2 * n))
          ~capacities:[ (100.0, 1.0) ] ()
      in
      let pairs = all_pairs g in
      let t = Ospf.routing g ~weights:(Ospf.unit_weights g) ~pairs () in
      Array.to_list (Array.init (Array.length pairs) (fun k -> k))
      |> List.for_all (fun k ->
             let paths, _ = Fd.decompose g t k in
             let total = List.fold_left (fun a p -> a +. p.Fd.weight) 0.0 paths in
             Float.abs (total -. 1.0) < 1e-6))

(* The paper's section 4.1 argument: after a failure, the rescaled
   protection decomposes to a *different* path set, so a path-based MPLS
   implementation would re-signal LSPs while MPLS-ff only retunes ratios. *)
let test_path_churn_after_rescaling () =
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 29 in
  let tm = Traffic.gravity rng g ~load_factor:0.15 () in
  let pairs, _ = Traffic.commodities tm in
  let base = Ospf.routing g ~weights:(Ospf.unit_weights g) ~pairs () in
  let cfg =
    { (R3_core.Offline.default_config ~f:1) with
      solve_method = R3_core.Offline.Constraint_gen }
  in
  match R3_core.Offline.compute cfg g tm (R3_core.Offline.Fixed base) with
  | Error m -> Alcotest.fail m
  | Ok plan ->
    let st = R3_core.Reconfig.of_plan plan in
    let st' = R3_core.Reconfig.fail st (R3_core.Scenario.of_links g [ 5 ]) in
    let fresh, total =
      Fd.path_churn g ~before:plan.R3_core.Offline.protection
        ~after:st'.R3_core.Reconfig.protection
    in
    Alcotest.(check bool) "some paths exist" true (total > 0);
    Alcotest.(check bool)
      (Printf.sprintf "rescaling creates new LSPs (%d/%d fresh)" fresh total)
      true (fresh > 0)

let suite =
  [
    Alcotest.test_case "graph basics (abilene)" `Quick test_graph_basics;
    Alcotest.test_case "find_link" `Quick test_find_link;
    Alcotest.test_case "failures and reachability" `Quick test_failures_and_reachability;
    Alcotest.test_case "parallel links" `Quick test_parallel_links;
    Alcotest.test_case "many parallel links" `Quick test_many_parallel_links;
    Alcotest.test_case "dijkstra simple" `Quick test_dijkstra_simple;
    Alcotest.test_case "dijkstra with failures" `Quick test_dijkstra_failed;
    Alcotest.test_case "shortest path chaining" `Quick test_shortest_path;
    Alcotest.test_case "ospf routing validity" `Quick test_ospf_validity;
    Alcotest.test_case "ospf validity under failure" `Quick test_ospf_validity_under_failure;
    Alcotest.test_case "ospf ECMP split" `Quick test_ospf_ecmp_split;
    Alcotest.test_case "ospf matches the per-pair reference" `Quick test_ospf_matches_reference;
    Alcotest.test_case "loads and MLU" `Quick test_routing_loads_mlu;
    Alcotest.test_case "gravity traffic" `Quick test_gravity_traffic;
    Alcotest.test_case "diurnal profile" `Quick test_diurnal;
    Alcotest.test_case "split3 recombines" `Quick test_split3;
    Alcotest.test_case "catalog matches Table 1" `Quick test_catalog_counts;
    Alcotest.test_case "srlg groups" `Quick test_srlg_groups;
    Alcotest.test_case "decompose single path" `Quick test_decompose_single_path;
    Alcotest.test_case "decompose ECMP split" `Quick test_decompose_ecmp_split;
    Alcotest.test_case "decompose strips cycles" `Quick test_decompose_strips_cycles;
    Alcotest.test_case "path churn after rescaling (Sec 4.1)" `Quick test_path_churn_after_rescaling;
    QCheck_alcotest.to_alcotest decompose_total_prop;
    QCheck_alcotest.to_alcotest ospf_validity_prop;
    QCheck_alcotest.to_alcotest ospf_failure_prop;
  ]
