(* Tests for the sparse routing-state substrate: the shared Rowvec
   kernels, and failure folding on Routing.t's sparse rows checked bit
   for bit against the naive dense reference fold (R3_check.Dense_ref). *)

module Rowvec = R3_util.Rowvec
module Prng = R3_util.Prng
module G = R3_net.Graph
module Routing = R3_net.Routing
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Reconfig = R3_core.Reconfig
module Scenario = R3_core.Scenario
module Dense_ref = R3_check.Dense_ref

(* Physical (bidirectional) failure of one link as a singleton delta. *)
let fail_bidir g st e = Reconfig.fail st (Scenario.of_links g [ e ])

let check_f name expected got =
  Alcotest.(check (float 0.0)) name expected got

(* ---- Rowvec kernels ---- *)

let test_rowvec_basics () =
  let r = Rowvec.create () in
  Alcotest.(check int) "empty nnz" 0 (Rowvec.nnz r);
  check_f "empty get" 0.0 (Rowvec.get r 3);
  (* out-of-order insertion, then overwrite and delete-by-zero *)
  Rowvec.set r 5 2.0;
  Rowvec.set r 1 1.0;
  Rowvec.set r 9 3.0;
  Rowvec.set r 5 2.5;
  Alcotest.(check int) "nnz after sets" 3 (Rowvec.nnz r);
  check_f "get 5" 2.5 (Rowvec.get r 5);
  Rowvec.set r 1 0.0;
  Alcotest.(check int) "exact zero removes" 2 (Rowvec.nnz r);
  Rowvec.clear r 9;
  Alcotest.(check int) "clear removes" 1 (Rowvec.nnz r);
  (* ascending iteration order *)
  let r = Rowvec.of_pairs [| 4; 0; 4; 2 |] [| 1.0; 2.0; 0.5; 3.0 |] in
  let order = ref [] in
  Rowvec.iter (fun j x -> order := (j, x) :: !order) r;
  Alcotest.(check (list (pair int (float 0.0))))
    "of_pairs sums duplicates, sorted"
    [ (0, 2.0); (2, 3.0); (4, 1.5) ]
    (List.rev !order);
  (* Duplicates are summed in input order: 1 + 1e16 - 1e16 is 0 (the 1
     is lost to rounding) and drops out; summed from the back it is 1. *)
  let r = Rowvec.of_pairs [| 3; 3; 3; 1 |] [| 1.0; 1e16; -1e16; 5.0 |] in
  let order = ref [] in
  Rowvec.iter (fun j x -> order := (j, x) :: !order) r;
  Alcotest.(check (list (pair int (float 0.0))))
    "of_pairs sums in input order" [ (1, 5.0) ] (List.rev !order)

let test_rowvec_dense_round_trip () =
  (* Exact-zero drop keeps denormals and negatives, drops both zeros. *)
  let a = [| 0.0; 1e-300; -3.5; -0.0; 2.0; 0.0 |] in
  let r = Rowvec.of_dense a in
  Alcotest.(check int) "nnz keeps tiny values" 3 (Rowvec.nnz r);
  let back = Rowvec.to_dense (Array.length a) r in
  (* -0.0 normalizes to +0.0 through the sparse representation *)
  Alcotest.(check bool) "round trip (zeros normalized)" true
    (back = [| 0.0; 1e-300; -3.5; 0.0; 2.0; 0.0 |]);
  (* full row: every entry stored *)
  let full = Array.init 16 (fun i -> float_of_int (i + 1)) in
  let rf = Rowvec.of_dense full in
  Alcotest.(check int) "full row nnz" 16 (Rowvec.nnz rf);
  Alcotest.(check bool) "full round trip" true (Rowvec.to_dense 16 rf = full)

let test_rowvec_scatter_and_dot () =
  let r = Rowvec.of_pairs [| 1; 4 |] [| 2.0; -1.0 |] in
  let into = [| 10.0; 10.0; 10.0; 10.0; 10.0 |] in
  Rowvec.scatter_add ~scale:2.0 r ~into;
  Alcotest.(check bool) "scatter_add" true
    (into = [| 10.0; 14.0; 10.0; 10.0; 8.0 |]);
  check_f "dot" ((2.0 *. 14.0) +. (-1.0 *. 8.0)) (Rowvec.dot r into)

let test_rowvec_merged_matches_dense () =
  let rng = Prng.create 42 in
  let width = 12 in
  for _ = 1 to 200 do
    let rand_dense () =
      Array.init width (fun _ ->
          if Prng.int rng 3 = 0 then 0.0 else Prng.float rng 1.0)
    in
    let yd = rand_dense () and xd = rand_dense () in
    let skip = Prng.int rng width in
    let factor = Prng.float rng 2.0 in
    let y = Rowvec.of_dense yd and x = Rowvec.of_dense xd in
    let got = Rowvec.to_dense width (Rowvec.merged ~skip ~y ~x factor) in
    (* reference: dense in-place update, entry [skip] zeroed *)
    let expect = Array.copy yd in
    Array.iteri
      (fun j v -> if v <> 0.0 then expect.(j) <- expect.(j) +. (factor *. v))
      xd;
    expect.(skip) <- 0.0;
    Array.iteri
      (fun j e ->
        if Int64.bits_of_float got.(j) <> Int64.bits_of_float (e +. 0.0) then
          Alcotest.failf "merged bit mismatch at %d: %h vs %h" j got.(j) e)
      expect
  done

(* ---- failure folding against the dense reference ---- *)

let make_state g ~seed =
  let rng = Prng.create seed in
  let tm = Traffic.gravity rng g ~load_factor:0.3 () in
  let pairs, demands = Traffic.commodities tm in
  let weights = R3_net.Ospf.unit_weights g in
  let base = R3_net.Ospf.routing g ~weights ~pairs () in
  let protection = R3_baselines.Cspf_detour.protection g in
  Reconfig.make g ~pairs ~demands ~base ~protection

let agrees what st want =
  match Dense_ref.mismatch st want with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s" what d

(* Randomized failure sequences, from one root: stepping physical
   failures through [Reconfig.fail] must land on the reference's
   canonical fold of the failed set, stepping directed failures through
   [apply_failures] on the reference's fold in the same order, and
   folding the whole directed sequence at once must equal the
   step-by-step fold. *)
let check_reference_identity g ~seed ~rounds ~max_fail =
  let root = make_state g ~seed in
  let pristine = Dense_ref.pristine root in
  let rng = Prng.create (seed + 1) in
  let m = G.num_links g in
  for round = 1 to rounds do
    let nfail = 1 + Prng.int rng max_fail in
    let links = List.init nfail (fun _ -> Prng.int rng m) in
    let what s = Printf.sprintf "round %d: %s" round s in
    let bidir = List.fold_left (fail_bidir g) root links in
    agrees (what "physical steps") bidir (Dense_ref.of_state bidir);
    let stepped =
      List.fold_left (fun st e -> Reconfig.apply_failures st [ e ]) root links
    in
    let want = Dense_ref.fold pristine links in
    agrees (what "directed steps") stepped want;
    agrees (what "apply_failures") (Reconfig.apply_failures root links) want
  done

let test_reference_identity_abilene () =
  check_reference_identity (Topology.abilene ()) ~seed:3 ~rounds:12 ~max_fail:3

let test_reference_identity_random () =
  let g =
    Topology.random ~seed:17 ~nodes:16 ~undirected_links:30
      ~capacities:[ (10.0, 0.5); (40.0, 0.5) ]
      ()
  in
  check_reference_identity g ~seed:5 ~rounds:8 ~max_fail:4

(* Mutating a routing after a copy-on-write fold must not leak into the
   parent or sibling states (row sharing stays invisible). *)
let test_cow_isolation () =
  let g = Topology.abilene () in
  let st = make_state g ~seed:9 in
  let base st = Routing.to_dense_matrix (Reconfig.base st) in
  let before = base st in
  let child = fail_bidir g st 0 in
  let want = Dense_ref.of_state child in
  agrees "child" child want;
  (* parent unchanged by the fold *)
  Alcotest.(check bool) "parent base intact" true (base st = before);
  (* writing into the child's base must not corrupt the parent... *)
  Routing.set (Reconfig.base child) 0 1 0.123;
  Alcotest.(check bool) "parent isolated from child writes" true
    (base st = before);
  (* ...and writing into the parent's base must not corrupt a child
     whose base is still pending (it folds from the parent when read) *)
  let child2 = fail_bidir g st 0 in
  Routing.set (Reconfig.base st) 0 2 0.456;
  agrees "children isolated from parent writes" child2 want

(* Stepping the same root state from several domains at once (the sweep
   engine's access pattern) must be race-free: the fold seals the parent
   with an atomic generation bump and the column support index is
   published atomically once fully built, so every worker computes the
   same states a sequential run does. *)
let test_parallel_fold_from_shared_root () =
  let g = Topology.abilene () in
  let m = G.num_links g in
  let mk () = make_state g ~seed:21 in
  let rng = Prng.create 22 in
  let seqs =
    Array.init 24 (fun _ -> List.init 3 (fun _ -> Prng.int rng m))
  in
  let fold_all st = Array.map (List.fold_left (fail_bidir g) st) seqs in
  let expected = fold_all (mk ()) in
  (* A fresh root, shared by all workers. *)
  let root = mk () in
  let got =
    Test_pool.with_domains 4 (fun () ->
        R3_util.Parallel.map (fun links -> List.fold_left (fail_bidir g) root links) seqs)
  in
  Array.iteri
    (fun i want ->
      if not (Reconfig.states_bit_identical want got.(i)) then
        Alcotest.failf "parallel fold %d diverged from sequential" i)
    expected

(* A failure chain longer than the overlay cap exercises index
   compaction (the child drops the inherited index and rebuilds from its
   own rows); results must stay bit-identical to the reference's full
   scan of every row. *)
let test_long_chain_identity () =
  let g =
    Topology.random ~seed:23 ~nodes:16 ~undirected_links:30
      ~capacities:[ (10.0, 1.0) ]
      ()
  in
  let m = G.num_links g in
  let rng = Prng.create 24 in
  let links = List.init 24 (fun _ -> Prng.int rng m) in
  let root = make_state g ~seed:11 in
  let final =
    List.fold_left (fun st e -> Reconfig.apply_failures st [ e ]) root links
  in
  agrees "long chain" final (Dense_ref.fold (Dense_ref.pristine root) links)

(* A row stored on every link, the longest a row gets: [set]/[get]/
   [row_dense] and a fold of it must carry the reference's bits. *)
let test_full_row () =
  let g = Topology.abilene () in
  let m = G.num_links g in
  let t = Routing.create g ~pairs:[| (0, 5) |] in
  let row = Array.init m (fun e -> 1.0 /. float_of_int (e + 2)) in
  Array.iteri (Routing.set t 0) row;
  Alcotest.(check int) "every link stored" m (Routing.nnz t);
  let bits a = Array.map Int64.bits_of_float a in
  Alcotest.(check (array int64)) "get" (bits row)
    (bits (Array.init m (Routing.get t 0)));
  Alcotest.(check (array int64)) "row_dense" (bits row) (bits (Routing.row_dense t 0));
  let e = 3 in
  let xi = Array.init m (fun l -> if l = e || l mod 4 <> 1 then 0.0 else 0.5) in
  let folded, _ =
    Routing.fold_failure t ~e ~xi:(R3_util.Rowvec.of_dense xi)
      ~replace_with_detour:false
  in
  Alcotest.(check (array int64)) "fold" (bits (Dense_ref.fold_row row ~e ~xi))
    (bits (Routing.row_dense folded 0))

let suite =
  [
    Alcotest.test_case "rowvec basics" `Quick test_rowvec_basics;
    Alcotest.test_case "rowvec dense round trip" `Quick
      test_rowvec_dense_round_trip;
    Alcotest.test_case "rowvec scatter and dot" `Quick
      test_rowvec_scatter_and_dot;
    Alcotest.test_case "rowvec merged matches dense" `Quick
      test_rowvec_merged_matches_dense;
    Alcotest.test_case "backend bit-identity abilene" `Quick
      test_reference_identity_abilene;
    Alcotest.test_case "backend bit-identity random" `Quick
      test_reference_identity_random;
    Alcotest.test_case "cow isolation" `Quick test_cow_isolation;
    Alcotest.test_case "parallel fold from shared root" `Quick
      test_parallel_fold_from_shared_root;
    Alcotest.test_case "long chain identity" `Quick test_long_chain_identity;
    Alcotest.test_case "full row matches the dense reference" `Quick test_full_row;
  ]
