(* Tests for the util substrate: PRNG determinism and distributions,
   statistics helpers. *)

module Prng = R3_util.Prng
module Stats = R3_util.Stats

let test_prng_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.bits a) (Prng.bits b)
  done;
  let c = Prng.create 8 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.bits a <> Prng.bits c then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_copy_and_split () =
  let a = Prng.create 9 in
  ignore (Prng.bits a);
  let b = Prng.copy a in
  Alcotest.(check int) "copy continues identically" (Prng.bits a) (Prng.bits b);
  let s1 = Prng.split a in
  let s2 = Prng.split a in
  Alcotest.(check bool) "splits independent" true (Prng.bits s1 <> Prng.bits s2)

let test_prng_int_bounds () =
  let rng = Prng.create 10 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "int out of bounds: %d" v
  done;
  (try
     ignore (Prng.int rng 0);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_prng_float_range () =
  let rng = Prng.create 11 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of range: %g" v
  done

let test_prng_uniformity () =
  let rng = Prng.create 12 in
  let buckets = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let b = Prng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      if Float.abs (frac -. 0.1) > 0.02 then Alcotest.failf "skewed bucket: %g" frac)
    buckets

let test_prng_shuffle_permutes () =
  let rng = Prng.create 13 in
  let arr = Array.init 50 (fun i -> i) in
  let orig = Array.copy arr in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check bool) "same multiset" true (sorted = orig);
  Alcotest.(check bool) "actually shuffled" true (arr <> orig)

let test_prng_sample_distinct () =
  let rng = Prng.create 14 in
  let arr = Array.init 30 (fun i -> i) in
  let s = Prng.sample rng 10 arr in
  Alcotest.(check int) "size" 10 (Array.length s);
  let sorted = Array.to_list s |> List.sort_uniq Int.compare in
  Alcotest.(check int) "distinct" 10 (List.length sorted)

(* Sampling and shuffling must be deterministic functions of the
   generator state: a copied generator replays the exact draw. The fuzz
   oracles (lib/check) lean on this to reproduce cases from a seed. *)
let test_prng_sample_copy_determinism () =
  let rng = Prng.create 77 in
  ignore (Prng.bits rng);
  let twin = Prng.copy rng in
  let arr = Array.init 40 (fun i -> i * 3) in
  Alcotest.(check (array int))
    "sample replays on a copy"
    (Prng.sample rng 12 arr)
    (Prng.sample twin 12 arr);
  let a = Array.init 25 (fun i -> i) in
  let b = Array.copy a in
  Prng.shuffle rng a;
  Prng.shuffle twin b;
  Alcotest.(check (array int)) "shuffle replays on a copy" a b

let test_prng_sample_full_permutation () =
  let rng = Prng.create 78 in
  let arr = Array.init 23 (fun i -> 100 - i) in
  let s = Prng.sample rng 23 arr in
  let sorted x =
    let c = Array.copy x in
    Array.sort Int.compare c;
    c
  in
  Alcotest.(check (array int))
    "k = n sample is a permutation" (sorted arr) (sorted s);
  try
    ignore (Prng.sample rng 24 arr);
    Alcotest.fail "k > n accepted"
  with Invalid_argument _ -> ()

let test_stats_basics () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min xs);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max xs);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile 100.0 xs)

let test_stats_stddev () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "stddev" 2.0 (Stats.stddev xs)

let test_histogram () =
  let xs = [| 0.1; 0.2; 0.55; 0.9; 1.5; -0.5 |] in
  let h = Stats.histogram ~bins:2 ~lo:0.0 ~hi:1.0 xs in
  (* clamping puts 1.5 in the top bin and -0.5 in the bottom *)
  Alcotest.(check int) "bottom bin" 3 h.(0);
  Alcotest.(check int) "top bin" 3 h.(1)

module Par = R3_util.Parallel
module J = R3_util.Json

let test_parallel_map_matches () =
  let a = Array.init 1000 (fun i -> i) in
  let f i = (i * i) mod 97 in
  Alcotest.(check (array int)) "map = Array.map" (Array.map f a) (Par.map f a)

let test_parallel_init_deterministic () =
  let f i = float_of_int i *. 1.5 in
  let one = Test_pool.with_domains 1 (fun () -> Par.init 500 f) in
  let many = Test_pool.with_domains 4 (fun () -> Par.init 500 f) in
  Alcotest.(check bool) "bit-identical across pool sizes" true (one = many)

let test_parallel_exception () =
  Test_pool.with_domains 4 @@ fun () ->
  match
    Par.map
      (fun i -> if i mod 3 = 0 then failwith (string_of_int i) else i)
      (Array.init 100 Fun.id)
  with
  | _ -> Alcotest.fail "expected exception to propagate"
  | exception Failure msg ->
    (* Doc: the exception from the lowest failing index wins. *)
    Alcotest.(check string) "lowest index wins" "0" msg

let test_parallel_set_domains () =
  let before = Par.domains () in
  Fun.protect
    ~finally:(fun () -> Par.set_domains before)
    (fun () ->
      Par.set_domains 1;
      Alcotest.(check int) "pinned to 1" 1 (Par.domains ());
      let a = Array.init 64 (fun i -> i) in
      Alcotest.(check (array int)) "sequential fallback" a (Par.map Fun.id a))

let test_json_to_string () =
  let doc =
    J.Obj
      [
        ("a", J.Int 1);
        ("b", J.List [ J.Float 1.5; J.Bool true; J.Null ]);
        ("s", J.String "x\"y\n");
        ("empty", J.List []);
      ]
  in
  Alcotest.(check string) "compact form"
    {|{"a": 1,"b": [1.5,true,null],"s": "x\"y\n","empty": []}|}
    (J.to_string doc)

let test_json_non_finite () =
  Alcotest.(check string) "nan -> null" "null" (J.to_string (J.Float Float.nan));
  Alcotest.(check string) "inf -> null" "null"
    (J.to_string (J.Float Float.infinity));
  Alcotest.(check string) "finite stays" "0.25" (J.to_string (J.Float 0.25))

let test_json_write_file () =
  let path = Filename.temp_file "r3json" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let doc = J.Obj [ ("k", J.List [ J.Int 1; J.Int 2 ]) ] in
      J.write_file path doc;
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "round trip" (J.to_string_pretty doc) contents;
      Alcotest.(check bool) "ends with newline" true
        (String.length contents > 0 && contents.[String.length contents - 1] = '\n'))

let test_stats_nan_rejected () =
  let bad = [| 1.0; Float.nan; 2.0 |] in
  let expect_invalid name f =
    try
      ignore (f ());
      Alcotest.failf "%s: expected Invalid_argument on NaN" name
    with Invalid_argument _ -> ()
  in
  expect_invalid "percentile" (fun () -> Stats.percentile 50.0 bad);
  expect_invalid "quantiles" (fun () -> Stats.quantiles ~ps:[ 50.0 ] bad);
  expect_invalid "histogram" (fun () ->
      Stats.histogram ~bins:2 ~lo:0.0 ~hi:1.0 bad);
  expect_invalid "min" (fun () -> Stats.min bad);
  expect_invalid "max" (fun () -> Stats.max bad)

(* Regression: min/max of an empty array used to return infinity and
   neg_infinity — fabricated extremes that silently poisoned downstream
   summaries. They must refuse instead. *)
let test_stats_empty_rejected () =
  let expect_invalid name f =
    try
      ignore (f ());
      Alcotest.failf "%s: expected Invalid_argument on empty array" name
    with Invalid_argument _ -> ()
  in
  expect_invalid "min" (fun () -> Stats.min [||]);
  expect_invalid "max" (fun () -> Stats.max [||])

(* Regression: mean of an empty array used to return NaN while stddev
   returned 0 — inconsistent fabrications. Both refuse now, like
   min/max; stddev of a single sample is 0 by the documented contract. *)
let test_stats_empty_mean_stddev () =
  let expect_invalid name f =
    try
      ignore (f ());
      Alcotest.failf "%s: expected Invalid_argument on empty array" name
    with Invalid_argument _ -> ()
  in
  expect_invalid "mean" (fun () -> Stats.mean [||]);
  expect_invalid "stddev" (fun () -> Stats.stddev [||]);
  Alcotest.(check (float 0.0)) "stddev of one sample" 0.0
    (Stats.stddev [| 5.0 |])

(* Documented histogram corner: a degenerate range (lo = hi) has zero
   bucket width; every sample lands in bucket 0 instead of dividing by
   zero, and the total count is preserved. *)
let test_histogram_degenerate_range () =
  let h = Stats.histogram ~bins:4 ~lo:3.0 ~hi:3.0 [| 3.0; 3.0; 2.0 |] in
  Alcotest.(check int) "all in bucket 0" 3 h.(0);
  Alcotest.(check int) "total preserved" 3 (Array.fold_left ( + ) 0 h)

(* Regression: wall-clock deltas are clamped at zero, so a backwards NTP
   step can never yield a negative duration. We cannot step the clock in
   a test, but the non-negativity contract itself must hold. *)
let test_timer_non_negative () =
  let (), dt = R3_util.Timer.time (fun () -> ()) in
  Alcotest.(check bool) "time >= 0" true (dt >= 0.0);
  Alcotest.(check bool) "best_of >= 0" true (R3_util.Timer.best_of Fun.id >= 0.0)

(* Worker exceptions must surface with the worker-side backtrace, not the
   caller's re-raise site. *)
let[@inline never] deep_raise i = failwith ("worker boom " ^ string_of_int i)

let test_parallel_backtrace () =
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace prev) @@ fun () ->
  Test_pool.with_domains 4 @@ fun () ->
  match
    Par.map
      (fun i -> if i = 5 then deep_raise i else i)
      (Array.init 32 Fun.id)
  with
  | _ -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure msg ->
    Alcotest.(check string) "original exception" "worker boom 5" msg;
    let bt = String.lowercase_ascii (Printexc.get_backtrace ()) in
    (* The raising frame lives in this file; a backtrace captured at the
       caller's re-raise would not mention it. *)
    Alcotest.(check bool)
      (Printf.sprintf "worker frame in backtrace: %s" bt)
      true
      (let has sub =
         let n = String.length sub and m = String.length bt in
         let rec go i = i + n <= m && (String.sub bt i n = sub || go (i + 1)) in
         go 0
       in
       has "test_util")

let test_json_shortest_roundtrip () =
  Alcotest.(check string) "0.1 stays short" "0.1" (J.number 0.1);
  Alcotest.(check string) "1/3 needs 16 digits" "0.3333333333333333"
    (J.number (1.0 /. 3.0));
  Alcotest.(check string) "integral float drops point" "1" (J.number 1.0);
  (* 0.1 +. 0.2 <> 0.3: the two must print differently *)
  Alcotest.(check bool) "adjacent floats distinguished" true
    (J.number (0.1 +. 0.2) <> J.number 0.3)

let json_number_roundtrip_prop =
  (* Arbitrary IEEE-754 bit patterns: every finite float must survive
     print -> parse bit-exactly; non-finite ones must print as null. *)
  QCheck.Test.make ~count:2000 ~name:"Json.number round-trips any float"
    QCheck.int64 (fun bits ->
      let f = Int64.float_of_bits bits in
      if Float.is_finite f then
        Int64.equal
          (Int64.bits_of_float (float_of_string (J.number f)))
          (Int64.bits_of_float f)
      else String.equal (J.number f) "null")

let test_json_parse () =
  let doc =
    J.of_string
      {| { "a": [1, -2.5, 1e3, true, false, null],
           "s": "x\"y\nAé",
           "nested": { "empty": {}, "l": [[]] } } |}
  in
  (match doc with
  | J.Obj [ ("a", J.List l); ("s", J.String s); ("nested", J.Obj _) ] ->
    Alcotest.(check int) "list length" 6 (List.length l);
    Alcotest.(check string) "escapes decoded" "x\"y\nA\xc3\xa9" s
  | _ -> Alcotest.fail "unexpected parse shape");
  List.iter
    (fun bad ->
      try
        ignore (J.of_string bad);
        Alcotest.failf "expected Parse_error on %S" bad
      with J.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "{\"k\" 1}"; "nan" ]

let test_json_parse_roundtrip () =
  let doc =
    J.Obj
      [
        ("f", J.List [ J.Float 0.1; J.Float (1.0 /. 3.0); J.Float 1e-300 ]);
        ("i", J.List [ J.Int max_int; J.Int min_int ]);
        ("s", J.String "tab\tnl\nquote\"end");
      ]
  in
  let rec equal a b =
    match (a, b) with
    | J.Float x, J.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | J.List x, J.List y -> List.for_all2 equal x y
    | J.Obj x, J.Obj y ->
      List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && equal v1 v2) x y
    | x, y -> x = y
  in
  Alcotest.(check bool) "compact" true (equal doc (J.of_string (J.to_string doc)));
  Alcotest.(check bool) "pretty" true
    (equal doc (J.of_string (J.to_string_pretty doc)))

let percentile_monotone_prop =
  QCheck.Test.make ~count:100 ~name:"percentile is monotone in p"
    QCheck.(pair (list_of_size (Gen.int_range 1 30) (float_range (-100.) 100.)) (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let xs = Array.of_list xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile lo xs <= Stats.percentile hi xs +. 1e-9)

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng copy and split" `Quick test_prng_copy_and_split;
    Alcotest.test_case "prng int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng uniformity" `Quick test_prng_uniformity;
    Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
    Alcotest.test_case "sample distinct" `Quick test_prng_sample_distinct;
    Alcotest.test_case "sample/shuffle replay on a copy" `Quick
      test_prng_sample_copy_determinism;
    Alcotest.test_case "full-size sample permutes" `Quick
      test_prng_sample_full_permutation;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "stats stddev" `Quick test_stats_stddev;
    Alcotest.test_case "histogram clamps" `Quick test_histogram;
    Alcotest.test_case "parallel map matches sequential" `Quick
      test_parallel_map_matches;
    Alcotest.test_case "parallel init deterministic" `Quick
      test_parallel_init_deterministic;
    Alcotest.test_case "parallel exception propagation" `Quick
      test_parallel_exception;
    Alcotest.test_case "parallel set_domains" `Quick test_parallel_set_domains;
    Alcotest.test_case "stats reject NaN" `Quick test_stats_nan_rejected;
    Alcotest.test_case "stats reject empty min/max" `Quick
      test_stats_empty_rejected;
    Alcotest.test_case "stats reject empty mean/stddev" `Quick
      test_stats_empty_mean_stddev;
    Alcotest.test_case "histogram degenerate range" `Quick
      test_histogram_degenerate_range;
    Alcotest.test_case "timer non-negative" `Quick test_timer_non_negative;
    Alcotest.test_case "parallel backtrace preserved" `Quick
      test_parallel_backtrace;
    Alcotest.test_case "json to_string" `Quick test_json_to_string;
    Alcotest.test_case "json non-finite numbers" `Quick test_json_non_finite;
    Alcotest.test_case "json write_file" `Quick test_json_write_file;
    Alcotest.test_case "json shortest round-trip" `Quick
      test_json_shortest_roundtrip;
    Alcotest.test_case "json parser" `Quick test_json_parse;
    Alcotest.test_case "json parse round-trip" `Quick test_json_parse_roundtrip;
    QCheck_alcotest.to_alcotest json_number_roundtrip_prop;
    QCheck_alcotest.to_alcotest percentile_monotone_prop;
  ]
