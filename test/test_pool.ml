(* The persistent pool's contract: deterministic results for any pool
   size (including resizes while idle and during a batch), nested
   batches without deadlock, worker-side exception backtraces, and
   bit-identity of the layers that ride on it (sweep, CG) across
   domains in {1, 2, 8}. *)

module Par = R3_util.Parallel
module Pool = R3_util.Pool

let with_domains d f =
  let before = Par.domains () in
  Fun.protect
    ~finally:(fun () -> Par.set_domains before)
    (fun () ->
      Par.set_domains d;
      f ())

(* ---- nested batches ---- *)

let test_nested_no_deadlock () =
  with_domains 4 @@ fun () ->
  (* Recursive splitting: every task runs a two-way batch of its halves
     and waits for it while its own batch's other chunks are running, so
     every level must drive its own batch instead of waiting on a queue
     the whole pool is blocked on. *)
  let rec sum lo hi =
    if hi - lo <= 8 then begin
      let acc = ref 0 in
      for i = lo to hi - 1 do
        acc := !acc + i
      done;
      !acc
    end
    else begin
      let mid = (lo + hi) / 2 in
      let halves = Par.init 2 (fun h -> if h = 0 then sum lo mid else sum mid hi) in
      halves.(0) + halves.(1)
    end
  in
  Alcotest.(check int) "divide and conquer" 499500 (sum 0 1000);
  (* Indexed batches nested inside pool tasks. *)
  let nested =
    Par.init 16 (fun i -> Array.fold_left ( + ) 0 (Par.init 50 (fun j -> i + j)))
  in
  let expected = Array.init 16 (fun i -> (50 * i) + 1225) in
  Alcotest.(check (array int)) "nested batches" expected nested

(* ---- exception + backtrace through a nested batch ---- *)

let[@inline never] deep_raise () = raise (Failure "nested boom")

let test_nested_exception_backtrace () =
  with_domains 4 @@ fun () ->
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace prev) @@ fun () ->
  let caller = Domain.self () in
  let started = Atomic.make 0 in
  (* The two outer tasks wait for each other, so one of them runs on a
     worker; only inner tasks on a worker raise. *)
  let outer i =
    Atomic.incr started;
    while Atomic.get started < 2 do
      Domain.cpu_relax ()
    done;
    Par.init 8 (fun j -> if Domain.self () <> caller then deep_raise () else i + j)
  in
  match Par.init 2 outer with
  | _ -> Alcotest.fail "expected the inner batch exception to propagate"
  | exception Failure msg ->
    Alcotest.(check string) "original exception" "nested boom" msg;
    let bt = String.lowercase_ascii (Printexc.get_backtrace ()) in
    (* A backtrace captured at either batch's re-raise would start
       there and miss the raising frame. *)
    let has sub =
      let n = String.length sub and m = String.length bt in
      let rec go i = i + n <= m && (String.sub bt i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "raising frame in backtrace: %s" bt)
      true
      (has "test_pool.deep_raise")

(* ---- resize while idle ---- *)

let test_resize_while_idle () =
  let before = Par.domains () in
  Fun.protect ~finally:(fun () -> Par.set_domains before) @@ fun () ->
  let expected = Array.init 200 (fun i -> (i * 31) mod 101) in
  let batch () = Par.init 200 (fun i -> (i * 31) mod 101) in
  let r0 = Pool.stats () in
  Par.set_domains 3;
  Alcotest.(check (array int)) "batch at 3" expected (batch ());
  (* Pool is idle here; grow... *)
  Par.set_domains 6;
  Alcotest.(check (array int)) "batch at 6" expected (batch ());
  Alcotest.(check int) "workers grown" 5 (Pool.stats ()).Pool.workers;
  (* ...and shrink. The tail workers are unpublished immediately. *)
  Par.set_domains 2;
  Alcotest.(check int) "workers shrunk" 1 (Pool.stats ()).Pool.workers;
  Alcotest.(check (array int)) "batch at 2" expected (batch ());
  let r1 = Pool.stats () in
  Alcotest.(check bool)
    (Printf.sprintf "resizes counted (%d -> %d)" r0.Pool.resizes r1.Pool.resizes)
    true
    (r1.Pool.resizes >= r0.Pool.resizes + 3)

(* ---- seeded stress with uneven task costs ---- *)

let test_stress_uneven_costs () =
  let before = Par.domains () in
  Fun.protect ~finally:(fun () -> Par.set_domains before) @@ fun () ->
  let n = 400 in
  (* Cost per task spans three orders of magnitude, seeded so every run
     and every pool size computes the same floats. *)
  let task i =
    let rng = R3_util.Prng.create ((i * 7919) + 11) in
    let cost = 1 lsl (i mod 11) in
    let acc = ref 0.0 in
    for _ = 1 to cost do
      acc := !acc +. R3_util.Prng.float rng 1.0
    done;
    !acc
  in
  Par.set_domains 1;
  let base = Par.init n task in
  List.iter
    (fun d ->
      Par.set_domains d;
      let got = Par.init n task in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical at %d domains" d)
        true (base = got))
    [ 2; 8 ]

let test_batch_sizes () =
  with_domains 4 @@ fun () ->
  let f i = float_of_int (i * i) /. 7.0 in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "n = %d" n)
        true
        (Array.init n f = Par.init n f))
    [ 0; 1; 2; 31; 32; 33; 333 ]

(* ---- CG bit-identity across pool sizes ---- *)

let plan_exn = function
  | Ok p -> p
  | Error m -> Alcotest.failf "offline solve failed: %s" m

let test_cg_identity_across_domains () =
  let module Offline = R3_core.Offline in
  let module Routing = R3_net.Routing in
  let g = R3_net.Topology.abilene () in
  let rng = R3_util.Prng.create 19 in
  let tm = R3_net.Traffic.gravity rng g ~load_factor:0.2 () in
  let pairs, _ = R3_net.Traffic.commodities tm in
  let base =
    R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs ()
  in
  let cfg =
    { (Offline.default_config ~f:1) with solve_method = Offline.Constraint_gen }
  in
  let run () = plan_exn (Offline.compute cfg g tm (Offline.Fixed base)) in
  let before = Par.domains () in
  Fun.protect ~finally:(fun () -> Par.set_domains before) @@ fun () ->
  Par.set_domains 1;
  let ref_plan = run () in
  List.iter
    (fun d ->
      Par.set_domains d;
      let p = run () in
      Alcotest.(check bool)
        (Printf.sprintf "same MLU at %d domains" d)
        true
        (Float.equal ref_plan.Offline.mlu p.Offline.mlu);
      Alcotest.(check int)
        (Printf.sprintf "same pivots at %d domains" d)
        ref_plan.Offline.lp_pivots p.Offline.lp_pivots;
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical protection at %d domains" d)
        true
        (Routing.to_dense_matrix ref_plan.Offline.protection
        = Routing.to_dense_matrix p.Offline.protection))
    [ 2; 8 ]

(* ---- metrics surface ---- *)

let test_pool_metrics_registered () =
  with_domains 4 @@ fun () ->
  ignore (Par.init 100 (fun i -> i));
  let s = Pool.stats () in
  Alcotest.(check bool) "tasks counted" true (s.Pool.tasks > 0);
  Alcotest.(check bool) "counters non-negative" true
    (s.Pool.steals >= 0 && s.Pool.parks >= 0 && s.Pool.max_queue_depth >= 0
   && s.Pool.resizes >= 0 && s.Pool.workers >= 0);
  Alcotest.(check bool) "r3.pool.tasks exported" true
    (R3_util.Metrics.counter_value "r3.pool.tasks" > 0)

(* ---- resize during a batch ---- *)

let test_resize_during_batch () =
  with_domains 4 @@ fun () ->
  let f i = (i * 37) mod 23 in
  let got =
    Par.init 64 (fun i ->
        if i = 10 then Par.set_domains 1;
        if i = 40 then Par.set_domains 3;
        f i)
  in
  Alcotest.(check (array int)) "batch across resizes" (Array.init 64 f) got;
  Alcotest.(check (array int)) "next batch" (Array.init 100 f) (Par.init 100 f);
  Alcotest.(check int) "workers after the next batch" 2 (Pool.stats ()).Pool.workers

let suite =
  [
    Alcotest.test_case "nested batches no deadlock" `Quick test_nested_no_deadlock;
    Alcotest.test_case "nested batch exception + backtrace" `Quick
      test_nested_exception_backtrace;
    Alcotest.test_case "resize while idle" `Quick test_resize_while_idle;
    Alcotest.test_case "stress: uneven costs, domains 1/2/8" `Quick
      test_stress_uneven_costs;
    Alcotest.test_case "batch sizes around chunk boundaries" `Quick test_batch_sizes;
    Alcotest.test_case "CG identity, domains 1/2/8" `Slow
      test_cg_identity_across_domains;
    Alcotest.test_case "pool metrics registered" `Quick test_pool_metrics_registered;
    Alcotest.test_case "resize during a batch" `Quick test_resize_during_batch;
  ]
