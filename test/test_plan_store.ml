(* Tests for the persistent plan store (DESIGN.md §16): the binary codec
   primitives, the framed container's corruption defenses, bit-identical
   plan round-trips, and crash/resume of the online runtime through the
   checkpoint format. *)

module G = R3_net.Graph
module Routing = R3_net.Routing
module Rowvec = R3_util.Rowvec
module Topology = R3_net.Topology
module Traffic = R3_net.Traffic
module Codec = R3_util.Codec
module Offline = R3_core.Offline
module Plan_store = R3_core.Plan_store
module Reconfig = R3_core.Reconfig
module Scenario = R3_core.Scenario
module Online = R3_sim.Online

let plan_exn = function
  | Ok p -> p
  | Error msg -> Alcotest.failf "offline failed: %s" msg

let ok_exn ctx = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: unexpected error: %s" ctx msg

let err_exn ctx = function
  | Ok _ -> Alcotest.failf "%s: expected an error" ctx
  | Error msg -> msg

let tmp_path ext = Filename.temp_file "r3plan" ext

let with_tmp ext f =
  let path = tmp_path ext in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Case-insensitive substring check, for asserting error messages name
   the failing validation without pinning their exact wording. *)
let mentions needle msg =
  let msg = String.lowercase_ascii msg
  and needle = String.lowercase_ascii needle in
  let n = String.length needle and m = String.length msg in
  let rec at i = i + n <= m && (String.sub msg i n = needle || at (i + 1)) in
  n = 0 || at 0

let check_mentions ctx needle msg =
  if not (mentions needle msg) then
    Alcotest.failf "%s: error %S does not mention %S" ctx msg needle

(* ---- codec primitives ---- *)

let test_crc32_vector () =
  (* The standard IEEE check value. *)
  Alcotest.(check int32) "crc32(123456789)" 0xCBF43926l (Codec.crc32 "123456789");
  Alcotest.(check int32) "crc32 empty" 0l (Codec.crc32 "")

let test_codec_roundtrip () =
  let w = Codec.W.create () in
  Codec.W.u8 w 0xAB;
  Codec.W.i32 w (-123456);
  Codec.W.int w min_int;
  Codec.W.int w max_int;
  Codec.W.i64 w 0x1122334455667788L;
  Codec.W.bool w true;
  Codec.W.bool w false;
  Codec.W.string w "hello \x00 binary";
  Codec.W.int_array w [| 0; -1; 42; max_int |];
  Codec.W.float_array w [| 1.5; -0.0; infinity; neg_infinity; Float.nan |];
  let r = Codec.R.of_string (Codec.W.contents w) in
  Alcotest.(check int) "u8" 0xAB (Codec.R.u8 r);
  Alcotest.(check int) "i32" (-123456) (Codec.R.i32 r);
  Alcotest.(check int) "int min" min_int (Codec.R.int r);
  Alcotest.(check int) "int max" max_int (Codec.R.int r);
  Alcotest.(check int64) "i64" 0x1122334455667788L (Codec.R.i64 r);
  Alcotest.(check bool) "true" true (Codec.R.bool r);
  Alcotest.(check bool) "false" false (Codec.R.bool r);
  Alcotest.(check string) "string" "hello \x00 binary" (Codec.R.string r);
  Alcotest.(check (array int)) "int array" [| 0; -1; 42; max_int |]
    (Codec.R.int_array r);
  (* Floats must round-trip bit-exactly, including -0.0 and NaN. *)
  let fs = Codec.R.float_array r in
  Alcotest.(check (array int64)) "float bits"
    (Array.map Int64.bits_of_float
       [| 1.5; -0.0; infinity; neg_infinity; Float.nan |])
    (Array.map Int64.bits_of_float fs);
  Codec.R.expect_end r

let test_codec_rejects_malformed () =
  let corrupt f =
    try
      ignore (f ());
      Alcotest.fail "expected Codec.R.Corrupt"
    with Codec.R.Corrupt _ -> ()
  in
  (* Truncated fixed-width field. *)
  corrupt (fun () -> Codec.R.i64 (Codec.R.of_string "abc"));
  (* Length prefix exceeding the remaining bytes must not allocate. *)
  let w = Codec.W.create () in
  Codec.W.i32 w 0x7FFFFFFF;
  corrupt (fun () -> Codec.R.string (Codec.R.of_string (Codec.W.contents w)));
  corrupt (fun () ->
      Codec.R.float_array (Codec.R.of_string (Codec.W.contents w)));
  (* Trailing garbage is an error, not silently ignored. *)
  let w = Codec.W.create () in
  Codec.W.u8 w 1;
  Codec.W.u8 w 2;
  let r = Codec.R.of_string (Codec.W.contents w) in
  ignore (Codec.R.u8 r);
  corrupt (fun () -> Codec.R.expect_end r)

(* ---- framed container ---- *)

let magic = "R3TESTFR"

let test_frame_roundtrip () =
  with_tmp ".bin" (fun path ->
      let payload = "some payload \x00\x01\x02 bytes" in
      Codec.write_framed path ~magic ~version:3 payload;
      Alcotest.(check string) "payload back" payload
        (ok_exn "read" (Codec.read_framed path ~magic ~version:3));
      let v, p = ok_exn "any" (Codec.read_framed_any_version path ~magic) in
      Alcotest.(check int) "version" 3 v;
      Alcotest.(check string) "payload (any version)" payload p)

let test_frame_rejections () =
  with_tmp ".bin" (fun path ->
      let payload = String.init 256 Char.chr in
      Codec.write_framed path ~magic ~version:1 payload;
      let original = read_file path in
      (* CRC: flip one payload byte. *)
      let corrupt = Bytes.of_string original in
      let pos = Codec.header_len + 100 in
      Bytes.set corrupt pos (Char.chr (Char.code (Bytes.get corrupt pos) lxor 0xFF));
      write_file path (Bytes.to_string corrupt);
      check_mentions "crc" "crc"
        (err_exn "crc" (Codec.read_framed path ~magic ~version:1));
      (* Version mismatch. *)
      write_file path original;
      check_mentions "version" "version"
        (err_exn "version" (Codec.read_framed path ~magic ~version:2));
      (* Wrong magic. *)
      let msg =
        err_exn "magic" (Codec.read_framed path ~magic:"WRONGMAG" ~version:1)
      in
      ignore msg;
      (* Truncation: cut the file inside the payload. *)
      write_file path (String.sub original 0 (String.length original - 10));
      ignore (err_exn "truncated" (Codec.read_framed path ~magic ~version:1));
      (* Shorter than the header. *)
      write_file path (String.sub original 0 10);
      ignore (err_exn "short" (Codec.read_framed path ~magic ~version:1));
      (* Missing file. *)
      Sys.remove path;
      ignore (err_exn "missing" (Codec.read_framed path ~magic ~version:1)))

(* ---- plan snapshots ---- *)

(* Small square-fixture plan: fast to solve, exercises real LP output. *)
let square_plan () =
  let g = Topology.square () in
  let tm = Traffic.zeros 4 in
  tm.(0).(2) <- 2.0;
  tm.(1).(3) <- 1.5;
  let cfg = Offline.default_config ~f:1 in
  (g, cfg, plan_exn (Offline.compute cfg g tm Offline.Joint))

let routing_bits r =
  Array.map (Array.map Int64.bits_of_float) (Routing.to_dense_matrix r)

let check_plans_equal (a : Offline.plan) (b : Offline.plan) =
  Alcotest.(check int) "f" a.Offline.f b.Offline.f;
  Alcotest.(check int64) "mlu bits" (Int64.bits_of_float a.Offline.mlu)
    (Int64.bits_of_float b.Offline.mlu);
  Alcotest.(check bool) "pairs" true (a.Offline.pairs = b.Offline.pairs);
  Alcotest.(check bool) "demand bits" true
    (Array.map Int64.bits_of_float a.Offline.demands
    = Array.map Int64.bits_of_float b.Offline.demands);
  Alcotest.(check bool) "base bits" true
    (routing_bits a.Offline.base = routing_bits b.Offline.base);
  Alcotest.(check bool) "protection bits" true
    (routing_bits a.Offline.protection = routing_bits b.Offline.protection);
  Alcotest.(check int) "lp_pivots" a.Offline.lp_pivots b.Offline.lp_pivots

let test_plan_roundtrip () =
  let _, cfg, plan = square_plan () in
  with_tmp ".plan" (fun path ->
      Plan_store.save path ~config:cfg plan;
      let plan', cfg' = ok_exn "load" (Plan_store.load path) in
      check_plans_equal plan plan';
      Alcotest.(check bool) "config round-trips" true (cfg = cfg');
      (* Deterministic encoding: re-saving an untouched reload must
         produce byte-identical snapshots. *)
      let bytes1 = read_file path in
      with_tmp ".plan" (fun path2 ->
          Plan_store.save path2 ~config:cfg' plan';
          Alcotest.(check bool) "re-save byte-identical" true
            (bytes1 = read_file path2));
      (* The reloaded plan must step Reconfig to the same states. *)
      let a = Reconfig.of_plan plan and b = Reconfig.of_plan plan' in
      let g = plan.Offline.graph in
      let sc = Scenario.of_links g [ 0 ] in
      Alcotest.(check bool) "reconfig bits equal after failure" true
        (Reconfig.states_bit_identical (Reconfig.fail a sc)
           (Reconfig.fail b sc)))

(* Every row stored on every link: the longest rows a snapshot holds. *)
let test_plan_roundtrip_full_rows () =
  let g, cfg, plan = square_plan () in
  let m = G.num_links g in
  let fill r =
    let r = Routing.copy r in
    for k = 0 to Routing.num_commodities r - 1 do
      Routing.set_row_dense r k
        (Array.init m (fun e -> float_of_int (k + 1) /. float_of_int (e + 3)))
    done;
    r
  in
  let plan =
    { plan with Offline.base = fill plan.Offline.base; protection = fill plan.Offline.protection }
  in
  with_tmp ".plan" (fun path ->
      Plan_store.save path ~config:cfg plan;
      let plan', _ = ok_exn "load" (Plan_store.load path) in
      check_plans_equal plan plan';
      Alcotest.(check int) "every base entry stored"
        (m * Array.length plan.Offline.pairs)
        (Routing.nnz plan'.Offline.base);
      Alcotest.(check int) "every protection entry stored" (m * m)
        (Routing.nnz plan'.Offline.protection))

let test_plan_survives_verification () =
  let _, cfg, plan = square_plan () in
  with_tmp ".plan" (fun path ->
      Plan_store.save path ~config:cfg plan;
      let plan', _ = ok_exn "load" (Plan_store.load path) in
      match R3_core.Verify.check_theorem1 ~samples:20 ~seed:3 plan' with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "reloaded plan fails Theorem 1: %s" msg)

let test_plan_wrong_topology_rejected () =
  let _, cfg, plan = square_plan () in
  with_tmp ".plan" (fun path ->
      Plan_store.save path ~config:cfg plan;
      let other = Topology.abilene () in
      check_mentions "expect_graph" "topology"
        (err_exn "expect_graph" (Plan_store.load ~expect_graph:other path));
      (* The right topology is accepted. *)
      ignore
        (ok_exn "same graph"
           (Plan_store.load ~expect_graph:plan.Offline.graph path)))

let test_plan_corruption_rejected () =
  let _, cfg, plan = square_plan () in
  with_tmp ".plan" (fun path ->
      Plan_store.save path ~config:cfg plan;
      let original = read_file path in
      (* Flip a byte deep in the payload: CRC must catch it. *)
      let corrupt = Bytes.of_string original in
      let pos = String.length original - 20 in
      Bytes.set corrupt pos
        (Char.chr (Char.code (Bytes.get corrupt pos) lxor 0x01));
      write_file path (Bytes.to_string corrupt);
      ignore (err_exn "flipped byte" (Plan_store.load path));
      ignore (err_exn "inspect of corrupt" (Plan_store.inspect path));
      (* Bump the version field (offset 8): version mismatch, not a
         misread. *)
      let bumped = Bytes.of_string original in
      Bytes.set bumped Codec.magic_len
        (Char.chr (Char.code (Bytes.get bumped Codec.magic_len) + 1));
      write_file path (Bytes.to_string bumped);
      check_mentions "bumped version" "version"
        (err_exn "bumped version" (Plan_store.load path));
      (* A file of the previous format version is refused, not misread. *)
      Alcotest.(check int) "format version" 4 Plan_store.version;
      let payload =
        String.sub original Codec.header_len (String.length original - Codec.header_len)
      in
      Codec.write_framed path ~magic:Plan_store.magic ~version:3 payload;
      check_mentions "v3 snapshot" "version"
        (err_exn "v3 snapshot" (Plan_store.load path)))

let test_plan_inspect () =
  let g, cfg, plan = square_plan () in
  with_tmp ".plan" (fun path ->
      Plan_store.save path ~config:cfg plan;
      let info = ok_exn "inspect" (Plan_store.inspect path) in
      Alcotest.(check int) "version" Plan_store.version info.Plan_store.version;
      Alcotest.(check int) "nodes" (G.num_nodes g) info.Plan_store.nodes;
      Alcotest.(check int) "links" (G.num_links g) info.Plan_store.links;
      Alcotest.(check int) "commodities"
        (Array.length plan.Offline.pairs)
        info.Plan_store.commodities;
      Alcotest.(check int) "f" 1 info.Plan_store.f;
      Alcotest.(check bool) "config as saved" true (info.Plan_store.config = cfg);
      Alcotest.(check int64) "mlu bits" (Int64.bits_of_float plan.Offline.mlu)
        (Int64.bits_of_float info.Plan_store.mlu);
      Alcotest.(check bool) "bytes matches file" true
        (info.Plan_store.bytes = String.length (read_file path));
      Alcotest.(check int) "base entries" (Routing.nnz plan.Offline.base)
        info.Plan_store.base_nnz;
      Alcotest.(check int) "protection entries"
        (Routing.nnz plan.Offline.protection)
        info.Plan_store.protection_nnz)

(* Hand-built plan frames: [f load] gets a [load ?gs ?ws routings] that
   frames the graph, config and workload sections of a saved square plan
   (or the [gs]/[ws] given instead) with a matching fingerprint and a
   valid CRC, appends what [routings] writes, and loads the result. *)
let with_handmade_frames f =
  let _, cfg, plan = square_plan () in
  with_tmp ".plan" (fun path ->
      Plan_store.save path ~config:cfg plan;
      let r =
        Codec.R.of_string
          (ok_exn "read frame"
             (Codec.read_framed path ~magic:Plan_store.magic ~version:Plan_store.version))
      in
      let _fingerprint = Codec.R.string r in
      let gs = Codec.R.string r in
      let cs = Codec.R.string r in
      let ws = Codec.R.string r in
      let load ?(gs = gs) ?(ws = ws) routings =
        let w = Codec.W.create () in
        Codec.W.string w (Digest.to_hex (Digest.string (gs ^ cs ^ ws)));
        List.iter (Codec.W.string w) [ gs; cs; ws ];
        routings w;
        Codec.write_framed path ~magic:Plan_store.magic ~version:Plan_store.version
          (Codec.W.contents w);
        Plan_store.load path
      in
      f load)

(* ---- routing row accessors (the codec's substrate) ---- *)

let test_row_vec_roundtrip () =
  let g = Topology.square () in
  let m = G.num_links g in
  let mk () = Routing.create g ~pairs:[| (0, 2); (1, 3) |] in
  let r = mk () in
  (* Install one full and one short row, read them back, and install
     them into a fresh routing: bits must survive the trip. *)
  Routing.set_row_dense r 0 (Array.init m (fun e -> float_of_int (e + 1) /. 7.0));
  Routing.set_row_vec r 1 (Rowvec.of_sorted [| 1; 3 |] [| 0.25; 0.75 |] 2);
  let r' = mk () in
  Routing.set_row_vec r' 0 (Routing.row_vec r 0);
  Routing.set_row_vec r' 1 (Routing.row_vec r 1);
  Alcotest.(check bool) "bits survive the row round-trip" true
    (routing_bits r = routing_bits r');
  Alcotest.(check int) "entries" (m + 2) (Routing.nnz r');
  (* Validation: wrong dense width and out-of-range index. *)
  let expect_invalid name f =
    try
      f ();
      Alcotest.failf "%s: expected Invalid_argument" name
    with Invalid_argument _ -> ()
  in
  expect_invalid "short dense row" (fun () -> Routing.set_row_dense r 0 [| 1.0 |]);
  expect_invalid "index out of range" (fun () ->
      Routing.set_row_vec r 0 (Rowvec.of_sorted [| m |] [| 1.0 |] 1));
  expect_invalid "negative index" (fun () ->
      Routing.set_row_vec r 0 (Rowvec.of_sorted [| -1 |] [| 1.0 |] 1));
  (* The plan store reports both as a malformed snapshot. *)
  with_handmade_frames (fun load ->
      let one_row idx w =
        Codec.W.i32 w 1;
        Codec.W.i32 w 0;
        Codec.W.i32 w 2;
        Codec.W.int_array w idx;
        Codec.W.float_array w (Array.make (Array.length idx) 0.5)
      in
      List.iter
        (fun (what, idx) -> check_mentions what "malformed" (err_exn what (load (one_row idx))))
        [ ("stored index out of range", [| m |]); ("indices not ascending", [| 2; 1 |]) ])

(* ---- online checkpoint / resume ---- *)

let online_root () =
  let g = Topology.abilene () in
  let rng = R3_util.Prng.create 11 in
  let tm = Traffic.gravity rng g ~load_factor:0.3 () in
  let pairs, demands = Traffic.commodities tm in
  let weights = R3_net.Ospf.unit_weights g in
  let base = R3_net.Ospf.routing g ~weights ~pairs () in
  (g, Reconfig.make g ~pairs ~demands ~base ~protection:(R3_baselines.Cspf_detour.protection g))

let stats_equal_modulo_distinct (a : Online.stats) (b : Online.stats) =
  a.Online.events = b.Online.events
  && a.Online.deliveries = b.Online.deliveries
  && a.Online.stale = b.Online.stale
  && Array.map Int64.bits_of_float a.Online.convergence_ms
     = Array.map Int64.bits_of_float b.Online.convergence_ms
  && Int64.bits_of_float a.Online.transient_mlu_peak
     = Int64.bits_of_float b.Online.transient_mlu_peak
  && Int64.bits_of_float a.Online.min_delivered
     = Int64.bits_of_float b.Online.min_delivered
  && a.Online.violation_windows = b.Online.violation_windows

let test_checkpoint_resume_bit_identical () =
  let g, root = online_root () in
  let events = Online.generate g ~seed:7 ~events:16 ~max_concurrent:2 () in
  let channel = Online.Channel.faulty Online.Channel.default_faults in
  let uninterrupted = Online.run ~channel ~seed:7 ~fibs:true root events in
  (* Drive the same run pausing every 25 deliveries, persisting each
     checkpoint through the on-disk format. *)
  with_tmp ".ck" (fun path ->
      let rec go resume pauses =
        match
          Online.run_to ~channel ~seed:7 ~fibs:true ?resume ~stop_after:25 root
            events
        with
        | `Done o -> (o, pauses)
        | `Paused ck ->
          Online.Checkpoint.save path ck;
          let ck' = ok_exn "checkpoint load" (Online.Checkpoint.load path) in
          Alcotest.(check int) "cursor round-trips"
            (Online.Checkpoint.cursor ck)
            (Online.Checkpoint.cursor ck');
          go (Some ck') (pauses + 1)
      in
      let resumed, pauses = go None 0 in
      Alcotest.(check bool) "actually paused at least twice" true (pauses >= 2);
      Alcotest.(check bool) "order independent" true
        resumed.Online.order_independent;
      Alcotest.(check bool) "fib consistent" true resumed.Online.fib_consistent;
      Alcotest.(check bool) "terminal bits identical" true
        (Reconfig.states_bit_identical uninterrupted.Online.terminal
           resumed.Online.terminal);
      Alcotest.(check int64) "quiescent mlu bits"
        (Int64.bits_of_float uninterrupted.Online.quiescent_mlu)
        (Int64.bits_of_float resumed.Online.quiescent_mlu);
      Alcotest.(check bool) "stats identical (modulo distinct_states)" true
        (stats_equal_modulo_distinct uninterrupted.Online.stats
           resumed.Online.stats))

let test_checkpoint_wrong_run_rejected () =
  let g, root = online_root () in
  let events = Online.generate g ~seed:7 ~events:16 ~max_concurrent:2 () in
  let ck =
    match Online.run_to ~seed:7 ~stop_after:10 root events with
    | `Paused ck -> ck
    | `Done _ -> Alcotest.fail "expected a pause"
  in
  (* Same root and events, different channel seed: the digest must refuse. *)
  try
    ignore (Online.run_to ~seed:8 ~resume:ck root events);
    Alcotest.fail "expected Invalid_argument on mismatched seed"
  with Invalid_argument _ -> ()

(* ---- hand-built checkpoint frames ---- *)

(* A checkpoint payload in the documented field order (DESIGN.md §16),
   with no delivery processed yet. *)
let checkpoint_payload ~digest ~seen ~belief ~dp ~pending ~convergence =
  let w = Codec.W.create () in
  Codec.W.string w digest;
  Codec.W.int w 0 (* cursor *);
  Codec.W.int w 0 (* stale *);
  Codec.W.i32 w (Array.length seen);
  Array.iter (Codec.W.int_array w) seen;
  Array.iter (Codec.W.string w) belief;
  Codec.W.string w dp;
  Codec.W.int_array w pending;
  Codec.W.float_array w convergence;
  Codec.W.float w 0.0 (* peak *);
  Codec.W.float w 1.0 (* min delivered *);
  Codec.W.bool w false (* no open violation window *);
  Codec.W.i32 w 0 (* closed windows *);
  Codec.W.float w 0.0 (* last delivery time *);
  Codec.W.contents w

let write_checkpoint path payload =
  Codec.write_framed path ~magic:"R3ONLNCK" ~version:1 payload

let test_checkpoint_router_count_bounded () =
  (* A CRC-valid frame claiming 2^22 routers but holding one empty row:
     the count must be rejected before 2^22 words (32 MB) are allocated
     for it. *)
  with_tmp ".ck" (fun path ->
      let w = Codec.W.create () in
      Codec.W.string w (String.make 32 '0');
      Codec.W.int w 0;
      Codec.W.int w 0;
      Codec.W.i32 w (1 lsl 22);
      Codec.W.int_array w [||];
      write_checkpoint path (Codec.W.contents w);
      let before = (Gc.quick_stat ()).Gc.major_words in
      let msg = err_exn "huge router count" (Online.Checkpoint.load path) in
      let grown = (Gc.quick_stat ()).Gc.major_words -. before in
      if grown > 1e5 then
        Alcotest.failf "rejecting the frame allocated %.0f major-heap words" grown;
      check_mentions "huge router count" "router count" msg)

(* CRC-valid plan frames whose graph, workload or routing section claims
   a huge element count: each count must be rejected as malformed before
   anything is allocated from it. *)
let test_plan_counts_bounded () =
  with_handmade_frames (fun load ->
      let section f =
        let w = Codec.W.create () in
        f w;
        Codec.W.contents w
      in
      let rejects what ?gs ?ws routings =
        let before = (Gc.quick_stat ()).Gc.major_words in
        let msg = err_exn what (load ?gs ?ws routings) in
        let grown = (Gc.quick_stat ()).Gc.major_words -. before in
        if grown > 1e5 then
          Alcotest.failf "%s: rejecting the frame allocated %.0f major-heap words" what
            grown;
        check_mentions what "malformed" msg
      in
      let huge_count w = Codec.W.i32 w (1 lsl 28) in
      rejects "huge node count" ~gs:(section huge_count) ignore;
      rejects "huge link count"
        ~gs:(section (fun w ->
                 Codec.W.i32 w 1;
                 Codec.W.string w "a";
                 huge_count w))
        ignore;
      rejects "huge commodity count" ~ws:(section huge_count) ignore;
      rejects "huge routing row count" huge_count)

(* The fingerprint does not cover the routings: a snapshot whose base
   lacks a row per commodity, whose protection lacks a row per link, or
   whose base rows belong to other pairs is malformed, not a plan that
   [Reconfig.of_plan] rejects later (or, for reversed pairs, accepts). *)
let test_plan_routing_shapes_checked () =
  let g = Topology.abilene () in
  let tm = Traffic.gravity (R3_util.Prng.create 3) g ~load_factor:0.2 () in
  let pairs, _ = Traffic.commodities tm in
  let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in
  let cfg = { (Offline.default_config ~f:1) with solve_method = Offline.Constraint_gen } in
  let plan = plan_exn (Offline.compute cfg g tm (Offline.Fixed base)) in
  (* The first [n] rows of [r], relabelled by [relabel]. *)
  let rows ?(relabel = Fun.id) n r =
    let t = Routing.create g ~pairs:(Array.map relabel (Array.sub (Routing.pairs r) 0 n)) in
    for k = 0 to n - 1 do
      Routing.set_row_vec t k (Routing.row_vec r k)
    done;
    t
  in
  let m = G.num_links g and nk = Array.length pairs in
  Alcotest.(check (pair int int)) "abilene plan shape" (28, 110) (m, nk);
  with_tmp ".plan" (fun path ->
      Plan_store.save path ~config:cfg plan;
      ignore (ok_exn "intact plan" (Plan_store.load path));
      List.iter
        (fun (what, broken) ->
          Plan_store.save path ~config:cfg broken;
          check_mentions what "malformed" (err_exn what (Plan_store.load path)))
        [
          ("base with 3 of 110 rows", { plan with Offline.base = rows 3 plan.Offline.base });
          ( "protection with 5 of 28 rows",
            { plan with Offline.protection = rows 5 plan.Offline.protection } );
          ( "base pairs reversed",
            { plan with Offline.base = rows ~relabel:(fun (a, b) -> (b, a)) nk plan.Offline.base }
          );
        ])

let test_checkpoint_shapes_checked () =
  let g, root = online_root () in
  let n = G.num_nodes g and m = G.num_links g in
  let events = Online.generate g ~seed:7 ~events:16 ~max_concurrent:2 () in
  let ne = List.length events in
  let channel = Online.Channel.faulty Online.Channel.default_faults in
  let run ?resume () = Online.run_to ~channel ~seed:7 ~fibs:true ?resume root events in
  with_tmp ".ck" (fun path ->
      let digest =
        match Online.run_to ~channel ~seed:7 ~fibs:true ~stop_after:10 root events with
        | `Paused ck ->
          Online.Checkpoint.save path ck;
          let payload =
            ok_exn "read frame" (Codec.read_framed path ~magic:"R3ONLNCK" ~version:1)
          in
          Codec.R.string (Codec.R.of_string payload)
        | `Done _ -> Alcotest.fail "expected a pause"
      in
      let resume ?(seen = Array.make_matrix n m 0)
          ?(belief = Array.make n (String.make m '\000'))
          ?(dp = String.make m '\000') ?(pending = Array.make ne n)
          ?(convergence = Array.make ne nan) () =
        write_checkpoint path
          (checkpoint_payload ~digest ~seen ~belief ~dp ~pending ~convergence);
        let ck = ok_exn "checkpoint load" (Online.Checkpoint.load path) in
        run ~resume:ck ()
      in
      (* Well-shaped: resuming from "nothing delivered yet" is the whole run. *)
      (match (resume (), run ()) with
      | `Done a, `Done b ->
        Alcotest.(check bool) "hand-built frame resumes to the same terminal" true
          (Reconfig.states_bit_identical a.Online.terminal b.Online.terminal
          && stats_equal_modulo_distinct a.Online.stats b.Online.stats)
      | _ -> Alcotest.fail "expected both runs to finish");
      let rejected what f =
        match f () with
        | exception Invalid_argument msg ->
          if not (mentions "checkpoint state does not fit" msg) then
            Alcotest.failf "%s: unnamed error %S" what msg
        | _ -> Alcotest.failf "%s: resumed a checkpoint of the wrong shape" what
      in
      rejected "one router short" (fun () -> resume ~seen:(Array.make_matrix (n - 1) m 0)
                                        ~belief:(Array.make (n - 1) (String.make m '\000')) ());
      rejected "seen row too long" (fun () ->
          let seen = Array.make_matrix n m 0 in
          seen.(n - 1) <- Array.make (m + 1) 0;
          resume ~seen ());
      rejected "belief row too short" (fun () ->
          let belief = Array.make n (String.make m '\000') in
          belief.(0) <- String.make (m - 1) '\000';
          resume ~belief ());
      rejected "data-plane beliefs too long" (fun () -> resume ~dp:(String.make (m + 1) '\000') ());
      rejected "pending too short" (fun () -> resume ~pending:(Array.make (ne - 1) n) ());
      rejected "convergence too long" (fun () -> resume ~convergence:(Array.make (ne + 1) nan) ()))

(* ---- bugfix regressions (Scenario.hash) ---- *)

let test_scenario_hash_mixes_whole_set () =
  (* Hashtbl.hash stops after ~10 meaningful values, so scenarios sharing
     a long prefix used to collide wholesale. Build many scenarios that
     share 10 physical picks and differ only in the 11th: their hashes
     must not all collapse to one bucket. *)
  let g =
    Topology.random ~seed:41 ~nodes:24 ~undirected_links:60
      ~capacities:[ (10.0, 1.0) ]
      ()
  in
  let phys = R3_sim.Scenarios.physical_links g in
  Alcotest.(check bool) "fixture has enough physical links" true
    (Array.length phys > 24);
  let prefix = Array.to_list (Array.sub phys 0 10) in
  let hashes =
    List.init 12 (fun i ->
        Scenario.hash (Scenario.of_physical g (phys.(12 + i) :: prefix)))
  in
  let distinct = List.sort_uniq Int.compare hashes in
  Alcotest.(check bool) "suffix changes reach the hash" true
    (List.length distinct > 1);
  (* Equal scenarios still hash equally, however they were built. *)
  let a = Scenario.of_physical g prefix in
  let b = Scenario.of_physical g (List.rev prefix) in
  Alcotest.(check bool) "hash respects equality" true
    (Scenario.equal a b && Scenario.hash a = Scenario.hash b)

let suite =
  [
    Alcotest.test_case "crc32 test vector" `Quick test_crc32_vector;
    Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec rejects malformed" `Quick
      test_codec_rejects_malformed;
    Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame rejections" `Quick test_frame_rejections;
    Alcotest.test_case "plan round-trip bit-identical" `Quick
      test_plan_roundtrip;
    Alcotest.test_case "plan round-trip (full rows)" `Quick
      test_plan_roundtrip_full_rows;
    Alcotest.test_case "reloaded plan passes Theorem 1" `Quick
      test_plan_survives_verification;
    Alcotest.test_case "wrong topology rejected" `Quick
      test_plan_wrong_topology_rejected;
    Alcotest.test_case "corruption and version bump rejected" `Quick
      test_plan_corruption_rejected;
    Alcotest.test_case "plan inspect" `Quick test_plan_inspect;
    Alcotest.test_case "routing row storage round-trip" `Quick
      test_row_vec_roundtrip;
    Alcotest.test_case "checkpoint resume bit-identical" `Quick
      test_checkpoint_resume_bit_identical;
    Alcotest.test_case "checkpoint for wrong run rejected" `Quick
      test_checkpoint_wrong_run_rejected;
    Alcotest.test_case "scenario hash mixes whole set" `Quick
      test_scenario_hash_mixes_whole_set;
    Alcotest.test_case "checkpoint router count bounded" `Quick
      test_checkpoint_router_count_bounded;
    Alcotest.test_case "checkpoint shapes checked on resume" `Quick
      test_checkpoint_shapes_checked;
    Alcotest.test_case "plan decoders bound their counts" `Quick
      test_plan_counts_bounded;
    Alcotest.test_case "plan routings shaped like the plan" `Quick
      test_plan_routing_shapes_checked;
  ]
