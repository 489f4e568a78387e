(* Tests for the observability layer: R3_util.Metrics (sharded counters,
   gauges) and R3_util.Trace (nested spans, ring buffer, span totals). *)

module M = R3_util.Metrics
module T = R3_util.Trace
module Par = R3_util.Parallel
module J = R3_util.Json

let test_counter_basics () =
  M.reset ();
  let c = M.counter "test.counter.basics" in
  Alcotest.(check int) "starts at 0" 0 (M.counter_total c);
  M.incr c;
  M.add c 41;
  Alcotest.(check int) "incr + add" 42 (M.counter_total c);
  Alcotest.(check bool) "interned: same handle" true
    (M.counter "test.counter.basics" == c);
  Alcotest.(check int) "lookup by name" 42
    (M.counter_value "test.counter.basics");
  Alcotest.(check int) "absent name reads 0" 0 (M.counter_value "no.such")

let test_counter_merge_order_independent () =
  (* The merged total must not depend on how work spreads over domains. *)
  let totals =
    List.map
      (fun d ->
        M.reset ();
        let c = M.counter "test.counter.merge" in
        ignore
          (Test_pool.with_domains d (fun () -> Par.init 1000 (fun i -> M.add c (i mod 7))));
        M.counter_total c)
      [ 1; 2; 4 ]
  in
  match totals with
  | [ a; b; c ] ->
    Alcotest.(check int) "1 vs 2 domains" a b;
    Alcotest.(check int) "2 vs 4 domains" b c;
    Alcotest.(check int) "shards sum to total" a
      (Array.fold_left ( + ) 0 (M.counter_shards (M.counter "test.counter.merge")))
  | _ -> assert false

let test_gauge () =
  M.reset ();
  let g = M.gauge "test.gauge" in
  Alcotest.(check bool) "unset reads None" true (M.gauge_value g = None);
  M.set_gauge g 2.5;
  M.set_gauge g 7.25;
  Alcotest.(check bool) "last write wins" true (M.gauge_value g = Some 7.25)

let test_disabled_records_nothing () =
  M.reset ();
  let c = M.counter "test.disabled" in
  M.set_enabled false;
  Fun.protect ~finally:(fun () -> M.set_enabled true) @@ fun () ->
  M.incr c;
  M.add c 10;
  Alcotest.(check int) "nothing recorded" 0 (M.counter_total c)

let test_metrics_json_shape () =
  M.reset ();
  M.incr (M.counter "test.json.counter");
  M.set_gauge (M.gauge "test.json.gauge") 1.5;
  (match M.to_json () with
  | J.Obj fields ->
    Alcotest.(check (list string)) "exactly these sections"
      [ "counters"; "per_domain"; "gauges" ] (List.map fst fields)
  | _ -> Alcotest.fail "to_json must be an object");
  (* and the whole document must survive the JSON round-trip *)
  let s = J.to_string (M.to_json ()) in
  Alcotest.(check string) "round-trip stable" s (J.to_string (J.of_string s))

let test_span_nesting () =
  T.reset ();
  let v =
    T.with_span "outer" (fun () ->
        T.with_span "inner" ~attrs:[ ("k", T.Int 3) ] (fun () -> 42))
  in
  Alcotest.(check int) "value through spans" 42 v;
  match T.spans () with
  | [ inner; outer ] ->
    (* inner completes first, so it is recorded first *)
    Alcotest.(check string) "inner name" "inner" inner.T.name;
    Alcotest.(check int) "inner depth" 1 inner.T.depth;
    Alcotest.(check bool) "inner parent" true (inner.T.parent = Some "outer");
    Alcotest.(check bool) "inner attrs" true (inner.T.attrs = [ ("k", T.Int 3) ]);
    Alcotest.(check string) "outer name" "outer" outer.T.name;
    Alcotest.(check int) "outer depth" 0 outer.T.depth;
    Alcotest.(check bool) "outer parent" true (outer.T.parent = None);
    Alcotest.(check bool) "outer spans inner" true
      (outer.T.duration >= inner.T.duration)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_records_on_raise () =
  T.reset ();
  (try T.with_span "raises" (fun () -> failwith "boom") with Failure _ -> ());
  match T.spans () with
  | [ s ] -> Alcotest.(check string) "recorded despite raise" "raises" s.T.name
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_add_attr () =
  T.reset ();
  T.with_span "attributed" (fun () -> T.add_attr "late" (T.Bool true));
  (match T.spans () with
  | [ s ] -> Alcotest.(check bool) "late attr kept" true (s.T.attrs = [ ("late", T.Bool true) ])
  | _ -> Alcotest.fail "expected 1 span");
  (* outside any span: must be a silent no-op *)
  T.add_attr "orphan" T.(Int 1)

let test_ring_wraparound () =
  T.set_capacity 4;
  Fun.protect ~finally:(fun () -> T.set_capacity 8192) @@ fun () ->
  for i = 1 to 10 do
    T.with_span (Printf.sprintf "s%d" i) Fun.id
  done;
  Alcotest.(check int) "recorded counts all" 10 (T.recorded ());
  Alcotest.(check int) "dropped = overflow" 6 (T.dropped ());
  Alcotest.(check (list string)) "newest 4 kept, oldest first"
    [ "s7"; "s8"; "s9"; "s10" ]
    (List.map (fun s -> s.T.name) (T.spans ()));
  Alcotest.(check int) "summary counts every span, dropped ones too" 10
    (List.fold_left (fun acc (_, c, _) -> acc + c) 0 (T.summary ()))

let test_trace_disabled () =
  T.reset ();
  T.set_enabled false;
  Fun.protect ~finally:(fun () -> T.set_enabled true) @@ fun () ->
  let v = T.with_span "invisible" (fun () -> 7) in
  Alcotest.(check int) "f still runs" 7 v;
  Alcotest.(check int) "nothing recorded" 0 (T.recorded ())

let test_trace_summary () =
  T.reset ();
  T.with_span "a" Fun.id;
  T.with_span "a" Fun.id;
  T.with_span "b" Fun.id;
  let summary = T.summary () in
  Alcotest.(check int) "two names" 2 (List.length summary);
  let count_of n =
    List.find_map (fun (name, c, _) -> if name = n then Some c else None) summary
  in
  Alcotest.(check bool) "a counted twice" true (count_of "a" = Some 2);
  Alcotest.(check bool) "b counted once" true (count_of "b" = Some 1);
  T.reset ();
  Alcotest.(check int) "reset clears the totals" 0 (List.length (T.summary ()))

let test_spans_across_domains () =
  T.reset ();
  ignore
    (Test_pool.with_domains 4 (fun () ->
         Par.init 8 (fun i -> T.with_span "worker.span" (fun () -> i))));
  Alcotest.(check int) "all workers recorded" 8 (T.recorded ());
  List.iter
    (fun s -> Alcotest.(check int) "top-level in its domain" 0 s.T.depth)
    (T.spans ())

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "counter merge order-independent" `Quick
      test_counter_merge_order_independent;
    Alcotest.test_case "gauge" `Quick test_gauge;
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "metrics json shape" `Quick test_metrics_json_shape;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span records on raise" `Quick test_span_records_on_raise;
    Alcotest.test_case "add_attr" `Quick test_add_attr;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "trace disabled" `Quick test_trace_disabled;
    Alcotest.test_case "trace summary" `Quick test_trace_summary;
    Alcotest.test_case "spans across domains" `Quick test_spans_across_domains;
  ]
