module G = R3_net.Graph
module Routing = R3_net.Routing
module Prng = R3_util.Prng
module Metrics = R3_util.Metrics
module Stats = R3_util.Stats
module Codec = R3_util.Codec
module Reconfig = R3_core.Reconfig
module Scenario = R3_core.Scenario
module Offline = R3_core.Offline
module Online = R3_sim.Online
module Scenarios = R3_sim.Scenarios
module Cf = R3_mcf.Concurrent_flow

exception Failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

type t = { name : string; doc : string; check : Case.t -> unit }

let run o case =
  match o.check case with
  | () -> Ok ()
  | exception Failed msg -> Error msg
  | exception exn -> Error ("uncaught " ^ Printexc.to_string exn)

(* ---- shared fixtures ---- *)

let ospf_base g pairs =
  R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs ()

let make_root case =
  let g = Case.graph case in
  let pairs, demands = Case.commodities case in
  ( g,
    Reconfig.make g ~pairs ~demands ~base:(ospf_base g pairs)
      ~protection:(R3_baselines.Cspf_detour.protection g) )

(* Net effect of a schedule: the physical links still down at the end. *)
let final_physical sched =
  let down = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match ev.Online.kind with
      | Online.Fail -> Hashtbl.replace down ev.Online.link ()
      | Online.Recover -> Hashtbl.remove down ev.Online.link)
    sched;
  Hashtbl.fold (fun e () acc -> e :: acc) down []

let with_temp ext f =
  let path = Filename.temp_file "r3check" ext in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---- 1. LP formulation agreement ---- *)

(* Constraint generation (cutting planes over the knapsack oracle) and
   the dualized LP (7) are two formulations of one optimum, solved
   through different LPs; their MLU* must agree. So must the structured
   envelope (18) with one singleton SRLG per directed link and k = F,
   which is X_F again, reached through the group oracle. *)
let lp_agree =
  let check (case : Case.t) =
    let g = Case.graph case in
    let tm = Case.traffic case in
    let pairs, _ = Case.commodities case in
    let base = ospf_base g pairs in
    let solve solve_method =
      let cfg = { (Offline.default_config ~f:case.f) with Offline.solve_method } in
      Offline.compute cfg g tm (Offline.Fixed base)
    in
    let structured () =
      let singletons = List.init (G.num_links g) (fun l -> [ l ]) in
      R3_core.Structured.compute (Offline.default_config ~f:case.f) g tm
        { R3_core.Structured.srlgs = singletons; mlgs = []; k = case.f }
        (Offline.Fixed base)
    in
    let agree what other reference =
      match (reference, other) with
      | Ok (r : Offline.plan), Ok (o : Offline.plan) ->
        let m0 = r.Offline.mlu and m = o.Offline.mlu in
        let tol = 1e-6 *. Float.max 1.0 (Float.max (Float.abs m0) (Float.abs m)) in
        if Float.abs (m0 -. m) > tol then
          failf "%s found MLU* %.12g, constraint generation %.12g" what m m0
      | Error _, Error _ -> ()
      | Ok _, Error e -> failf "%s failed (%s) while constraint generation solved" what e
      | Error e, Ok _ -> failf "constraint generation failed (%s) while %s solved" e what
    in
    let cg = solve Offline.Constraint_gen in
    agree "the dualized LP" (solve Offline.Dualized) cg;
    agree "the structured envelope (singleton SRLGs, k = F)" (structured ()) cg
  in
  {
    name = "lp-agree";
    doc =
      "constraint generation, the dualized LP (7) and the structured \
       envelope with singleton SRLGs and k = F agree on MLU*";
    check;
  }

(* ---- 2. the fold against a naive dense reference ---- *)

(* Random fail/recover rounds; after each, the state's base and
   protection bits must equal Dense_ref's fold of its failed set from
   the pristine matrices in canonical order: a second, independent
   implementation of (8)-(10) with none of the sparse rows, support
   index or copy-on-write sharing. *)
let routing_dense_reference =
  let check (case : Case.t) =
    let g, root = make_root case in
    let st = ref root in
    let rng = Prng.create case.sub_seed in
    let phys = Scenarios.physical_links g in
    for round = 1 to 8 do
      let n = Int.min (1 + Prng.int rng 2) (Array.length phys) in
      let picks = Array.to_list (Prng.sample rng n phys) in
      let sc = Scenario.of_links g picks in
      st :=
        if Prng.bool rng 0.6 then Reconfig.fail !st sc else Reconfig.recover !st sc;
      match Dense_ref.mismatch !st (Dense_ref.of_state !st) with
      | Some d -> failf "round %d: %s" round d
      | None -> ()
    done
  in
  {
    name = "routing-dense-reference";
    doc = "fail/recover folds equal a naive dense fold of (8)-(10) bit for bit";
    check;
  }

(* ---- 3. order independence (Theorem 3) ---- *)

let reorder_independence =
  let check (case : Case.t) =
    let g, root = make_root case in
    let sched = Case.schedule case g in
    let stepped =
      List.fold_left
        (fun st ev ->
          let sc = Scenario.of_links g [ ev.Online.link ] in
          match ev.Online.kind with
          | Online.Fail -> Reconfig.fail st sc
          | Online.Recover -> Reconfig.recover st sc)
        root sched
    in
    let final = final_physical sched in
    let batch = Reconfig.fail root (Scenario.of_links g final) in
    if not (Reconfig.states_bit_identical stepped batch) then
      failf
        "sequential fail/recover folds differ from the canonical batch state";
    let reversed =
      List.fold_left
        (fun st e -> Reconfig.fail st (Scenario.of_links g [ e ]))
        root
        (List.rev (List.sort compare final))
    in
    if not (Reconfig.states_bit_identical reversed batch) then
      failf "failing the same links in reverse order diverged (Theorem 3)";
    let pristine = Reconfig.recover stepped (Scenario.of_links g final) in
    if not (Reconfig.states_bit_identical pristine root) then
      failf "recovering every failed link did not restore the pristine state"
  in
  {
    name = "reorder-independence";
    doc = "fold order never matters and full recovery is pristine (Theorem 3)";
    check;
  }

(* ---- 4. online runtime vs batch fold ---- *)

let online_vs_batch =
  let check (case : Case.t) =
    let g, root = make_root case in
    let sched = Case.schedule case g in
    let faulty = Online.Channel.faulty Online.Channel.default_faults in
    let o = Online.run ~channel:faulty ~seed:case.sub_seed root sched in
    if not o.Online.order_independent then
      failf "a router's terminal view differs from the batch state";
    let batch = Reconfig.fail root (Scenario.of_links g (final_physical sched)) in
    if not (Reconfig.states_bit_identical o.Online.terminal batch) then
      failf "faulty-channel terminal state differs from the batch fold";
    let ideal = Online.run ~seed:case.sub_seed root sched in
    if not (Reconfig.states_bit_identical ideal.Online.terminal o.Online.terminal)
    then failf "ideal and faulty channels reached different terminal states"
  in
  {
    name = "online-vs-batch";
    doc = "online runtime over a faulty channel matches the batch fold";
    check;
  }

(* ---- 5. checkpoint pause/resume and corruption rejection ---- *)

let checkpoint_resume =
  let check (case : Case.t) =
    let g, root = make_root case in
    let sched = Case.schedule case g in
    let channel = Online.Channel.faulty Online.Channel.default_faults in
    let seed = case.sub_seed in
    let full = Online.run ~channel ~seed root sched in
    let nd = full.Online.stats.Online.deliveries in
    if nd >= 2 then begin
      match Online.run_to ~channel ~seed ~stop_after:(nd / 2) root sched with
      | `Done _ ->
        failf "stop_after %d of %d deliveries did not pause" (nd / 2) nd
      | `Paused ck ->
        with_temp ".ck" (fun path ->
            Online.Checkpoint.save path ck;
            (match Online.Checkpoint.load path with
            | Error e -> failf "checkpoint reload failed: %s" e
            | Ok ck' -> (
              match Online.run_to ~channel ~seed ~resume:ck' root sched with
              | `Paused _ -> failf "resume without stop_after paused again"
              | `Done o ->
                if
                  not
                    (Reconfig.states_bit_identical o.Online.terminal
                       full.Online.terminal)
                then failf "resumed run's terminal state differs";
                if not o.Online.order_independent then
                  failf "resumed run lost order independence"));
            (* Injected corruption must surface as [Error], never as a
               clean load of wrong state and never as an exception. *)
            let bytes = read_bytes path in
            let n = String.length bytes in
            let rng = Prng.create (seed lxor 0x5bd1e995) in
            let expect_reject what =
              match Online.Checkpoint.load path with
              | Error _ -> ()
              | Ok _ -> failf "%s checkpoint loaded cleanly" what
              | exception exn ->
                failf "%s checkpoint raised %s instead of returning Error"
                  what (Printexc.to_string exn)
            in
            let i = Prng.int rng n in
            let b = Bytes.of_string bytes in
            Bytes.set b i
              (Char.chr (Char.code bytes.[i] lxor (1 + Prng.int rng 255)));
            write_bytes path (Bytes.to_string b);
            expect_reject "byte-flipped";
            write_bytes path (String.sub bytes 0 (Prng.int rng n));
            expect_reject "truncated")
    end
  in
  {
    name = "checkpoint-resume";
    doc = "pause/resume is lossless; corrupt checkpoints are rejected";
    check;
  }

(* ---- 6. plan store round-trip and corruption rejection ---- *)

let plan_store =
  let check (case : Case.t) =
    let g = Case.graph case in
    let pairs, demands = Case.commodities case in
    let base = ospf_base g pairs in
    let protection = R3_baselines.Cspf_detour.protection g in
    let loads = Routing.loads g ~demands base in
    let plan =
      {
        Offline.graph = g;
        f = case.f;
        pairs;
        demands;
        base;
        protection;
        mlu = Routing.mlu g ~loads;
        lp_vars = 0;
        lp_rows = 0;
        lp_pivots = 0;
      }
    in
    (* Nothing was solved: record the configuration a default solve of
       this case would use. *)
    let config = Offline.default_config ~f:case.f in
    with_temp ".plan" (fun path ->
        R3_core.Plan_store.save path ~config plan;
        (match R3_core.Plan_store.load ~expect_graph:g path with
        | Error e -> failf "snapshot reload failed: %s" e
        | Ok (p, cfg) ->
          if cfg <> config then failf "config changed";
          (* Reloaded rows are freshly decoded, so no row is shared with
             the saved plan and every one is compared in full. *)
          if p.Offline.pairs <> pairs then failf "commodities changed";
          if
            not
              (Array.for_all2
                 (fun x y ->
                   Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
                 p.Offline.demands demands)
          then failf "demands not bit-identical after reload";
          if not (Routing.bits_equal p.Offline.base base) then
            failf "base routing not bit-identical after reload";
          if not (Routing.bits_equal p.Offline.protection protection) then
            failf "protection routing not bit-identical after reload";
          if
            not
              (Int64.equal
                 (Int64.bits_of_float p.Offline.mlu)
                 (Int64.bits_of_float plan.Offline.mlu))
          then failf "MLU not bit-identical after reload");
        let bytes = read_bytes path in
        let n = String.length bytes in
        let rng = Prng.create (case.sub_seed lxor 0x2545f491) in
        let expect_reject what =
          match R3_core.Plan_store.load path with
          | Error _ -> ()
          | Ok _ -> failf "%s snapshot loaded cleanly" what
          | exception exn ->
            failf "%s snapshot raised %s instead of returning Error" what
              (Printexc.to_string exn)
        in
        write_bytes path (String.sub bytes 0 (Prng.int rng n));
        expect_reject "truncated";
        let i = Prng.int rng n in
        let b = Bytes.of_string bytes in
        Bytes.set b i
          (Char.chr (Char.code bytes.[i] lxor (1 + Prng.int rng 255)));
        write_bytes path (Bytes.to_string b);
        expect_reject "byte-flipped")
  in
  {
    name = "plan-store-roundtrip";
    doc = "plan snapshots round-trip bit-identically; corruption loads Error";
    check;
  }

(* ---- 7. codec round-trip and truncation robustness ---- *)

let codec =
  let module W = Codec.W in
  let module R = Codec.R in
  let check (case : Case.t) =
    let rng = Prng.create case.sub_seed in
    let ints =
      Array.init (Prng.int rng 40) (fun _ -> Prng.bits rng - Prng.bits rng)
    in
    let floats =
      Array.init (Prng.int rng 40) (fun _ ->
          match Prng.int rng 8 with
          | 0 -> Float.nan
          | 1 -> Float.infinity
          | 2 -> Float.neg_infinity
          | 3 -> -0.0
          | 4 -> 0x1p-1074 *. float_of_int (1 + Prng.int rng 5)
          | _ ->
            Prng.gaussian rng *. Float.exp (float_of_int (Prng.int rng 40) -. 20.0))
    in
    let str =
      String.init (Prng.int rng 60) (fun _ -> Char.chr (Prng.int rng 256))
    in
    let w = W.create () in
    W.int_array w ints;
    W.float_array w floats;
    W.string w str;
    W.bool w true;
    W.u8 w (Prng.int rng 256);
    let payload = W.contents w in
    let decode s =
      let r = R.of_string s in
      let ints' = R.int_array r in
      let floats' = R.float_array r in
      let str' = R.string r in
      let b = R.bool r in
      let u = R.u8 r in
      R.expect_end r;
      (ints', floats', str', b, u)
    in
    let ints', floats', str', b, _ = decode payload in
    if ints' <> ints then failf "int array did not round-trip";
    if
      not
        (Array.length floats' = Array.length floats
        && Array.for_all2
             (fun x y ->
               Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
             floats' floats)
    then failf "float array did not round-trip bit-exactly";
    if str' <> str then failf "string did not round-trip";
    if not b then failf "bool did not round-trip";
    (* Truncated payloads must raise Corrupt from some accessor — no
       silent misread, no other exception. *)
    let cut = Prng.int rng (String.length payload) in
    (match decode (String.sub payload 0 cut) with
    | _ -> failf "payload truncated at %d bytes decoded cleanly" cut
    | exception R.Corrupt _ -> ()
    | exception exn ->
      failf "truncated payload raised %s instead of Corrupt"
        (Printexc.to_string exn));
    with_temp ".frame" (fun path ->
        let magic = "R3FUZZCK" in
        Codec.write_framed path ~magic ~version:1 payload;
        (match Codec.read_framed path ~magic ~version:1 with
        | Ok p when p = payload -> ()
        | Ok _ -> failf "framed payload changed through the round-trip"
        | Error e -> failf "framed reload failed: %s" e);
        (match Codec.read_framed path ~magic:"WRONGMGC" ~version:1 with
        | Error _ -> ()
        | Ok _ -> failf "wrong magic accepted");
        (match Codec.read_framed path ~magic ~version:2 with
        | Error _ -> ()
        | Ok _ -> failf "wrong version accepted");
        let bytes = read_bytes path in
        let i = Prng.int rng (String.length bytes) in
        let b = Bytes.of_string bytes in
        Bytes.set b i
          (Char.chr (Char.code bytes.[i] lxor (1 + Prng.int rng 255)));
        write_bytes path (Bytes.to_string b);
        match Codec.read_framed path ~magic ~version:1 with
        | Error _ -> ()
        | Ok _ -> failf "byte-flipped frame accepted")
  in
  {
    name = "codec-robustness";
    doc = "binary codec round-trips bit-exactly and rejects truncation";
    check;
  }

(* ---- 8. Theorems 1-2 as executable properties ---- *)

let theorems =
  let check (case : Case.t) =
    let g = Case.graph case in
    let tm = Case.traffic case in
    let pairs, _ = Case.commodities case in
    let base = ospf_base g pairs in
    let cfg =
      {
        (Offline.default_config ~f:1) with
        Offline.solve_method = Offline.Constraint_gen;
      }
    in
    (* Single-physical-event envelope, as bidirectional SRLGs: higher
       budgets are routinely infeasible on these sparse random graphs
       (degree-2 nodes), which would make the oracle vacuous. *)
    match
      R3_core.Structured.compute cfg g tm
        { R3_core.Structured.srlgs = R3_core.Structured.physical_srlgs g; mlgs = []; k = 1 }
        (Offline.Fixed base)
    with
    | Error _ -> () (* envelope infeasible: the theorems claim nothing *)
    | Ok plan ->
      let root = Reconfig.of_plan plan in
      let congestion_free = plan.Offline.mlu <= 1.0 in
      Scenarios.enumerate g ~k:1
      |> List.iter (fun sc ->
             let st = Reconfig.fail root sc in
             let failed = G.fail_links g (Scenario.links sc) in
             let r = Reconfig.base st in
             (* The folded load vector (9) = the loads of the folded
                base, on every state, congestion-free or not. *)
             let want = Routing.loads g ~demands:st.Reconfig.demands r in
             let got = Reconfig.loads st in
             let scale = Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0.0 want in
             Array.iteri
               (fun e x ->
                 if Float.abs (x -. want.(e)) > 1e-12 *. scale then
                   failf "scenario %s: folded load %.17g on link %d, base gives %.17g"
                     (Scenario.describe g sc) x e want.(e))
               got;
             let mlu = Reconfig.mlu st in
             let want_mlu = Routing.mlu g ~loads:want in
             if Float.abs (mlu -. want_mlu) > 1e-12 *. want_mlu then
               failf "scenario %s: folded MLU %.17g, base gives %.17g"
                 (Scenario.describe g sc) mlu want_mlu;
             if congestion_free then begin
               (* Theorem 2: reconfiguration keeps MLU within the plan's
                  congestion-free bound. *)
               if mlu > 1.0 +. 1e-6 then
                 failf "scenario %s: reconfigured MLU %.9f > 1 (Theorem 2)"
                   (Scenario.describe g sc) mlu;
               (* Theorem 1: no traffic crosses a failed link. (Strict
                  R1-R4 validity is NOT guaranteed here — rescaling (9)
                  may route a detour through another commodity's source,
                  which is the loop the paper's loop_penalty discounts —
                  so the oracle checks exactly what the theorem claims.) *)
               for kc = 0 to Routing.num_commodities r - 1 do
                 Routing.iter_row r kc (fun e x ->
                     if failed.(e) && x > 1e-9 then
                       failf
                         "scenario %s: commodity %d keeps %g on failed link \
                          %d (Theorem 1)"
                         (Scenario.describe g sc) kc x e)
               done;
               if G.strongly_connected g ~failed () then begin
                 let df = Reconfig.delivered_fraction st in
                 if df < 1.0 -. 1e-6 then
                   failf
                     "scenario %s: delivered fraction %.9f < 1 on a \
                      connected survivor (Theorem 1)"
                     (Scenario.describe g sc) df
               end
             end)
  in
  {
    name = "theorem-congestion-free";
    doc =
      "congestion-free plans stay congestion-free after failures (Thm 1-2); \
       folded link loads match the folded base";
    check;
  }

(* ---- 9. scenario sampling contract ---- *)

let scenario_sampling =
  let check (case : Case.t) =
    let g = Case.graph case in
    let phys = Scenarios.physical_links g in
    let n = Array.length phys in
    let k = case.k in
    if k <= n then begin
      let total = Stats.binom n k in
      let expected =
        if total >= float_of_int max_int then case.count
        else Int.min case.count (int_of_float total)
      in
      let before = Metrics.counter_value "sim.scenarios.sample_shortfall" in
      let got = Scenarios.sample g ~k ~count:case.count ~seed:case.sub_seed in
      let after = Metrics.counter_value "sim.scenarios.sample_shortfall" in
      let len = List.length got in
      if len > expected then
        failf "sample returned %d scenarios > min(count=%d, C(%d,%d)=%.0f)"
          len case.count n k total;
      let shortfall = after - before in
      if len + shortfall <> expected then
        failf
          "sample returned %d of %d scenarios with shortfall metric %d — %d \
           missing scenarios went unrecorded"
          len expected shortfall
          (expected - len - shortfall);
      let seen = Hashtbl.create 64 in
      List.iter
        (fun sc ->
          if Scenario.size sc <> k then
            failf "scenario %s fails %d physical links, wanted %d"
              (Scenario.key sc) (Scenario.size sc) k;
          let key = Scenario.key sc in
          if Hashtbl.mem seen key then failf "duplicate scenario %s" key;
          Hashtbl.add seen key ())
        got;
      let again = Scenarios.sample g ~k ~count:case.count ~seed:case.sub_seed in
      if not (List.equal Scenario.equal got again) then
        failf "sample is not deterministic in its seed";
      if total <= 3000.0 then begin
        let all = Scenarios.enumerate g ~k in
        if List.length all <> int_of_float total then
          failf "enumerate found %d scenarios, C(%d,%d) = %.0f"
            (List.length all) n k total
      end
    end
  in
  {
    name = "scenario-sampling";
    doc = "Scenarios.sample honours size, distinctness and the shortfall metric";
    check;
  }

(* ---- 10. Stats / Prng contracts ---- *)

let stats_prng =
  let check (case : Case.t) =
    let rng = Prng.create case.sub_seed in
    let expect_invalid name f =
      match f () with
      | _ -> failf "%s did not raise Invalid_argument" name
      | exception Invalid_argument _ -> ()
    in
    expect_invalid "Stats.mean [||]" (fun () -> Stats.mean [||]);
    expect_invalid "Stats.stddev [||]" (fun () -> Stats.stddev [||]);
    expect_invalid "Stats.min [||]" (fun () -> Stats.min [||]);
    expect_invalid "Stats.max [||]" (fun () -> Stats.max [||]);
    expect_invalid "Stats.mean [nan]" (fun () ->
        Stats.mean [| 1.0; Float.nan |]);
    expect_invalid "Stats.stddev [nan]" (fun () ->
        Stats.stddev [| Float.nan; 1.0 |]);
    let n = 1 + Prng.int rng 60 in
    let xs = Array.init n (fun _ -> Prng.uniform rng (-50.0) 50.0) in
    let mu = Stats.mean xs in
    if not (Stats.min xs -. 1e-9 <= mu && mu <= Stats.max xs +. 1e-9) then
      failf "mean %.9g outside [min, max]" mu;
    let sd = Stats.stddev xs in
    if sd < 0.0 || Float.is_nan sd then failf "stddev %.9g negative or NaN" sd;
    if n = 1 && sd <> 0.0 then failf "stddev of a single sample is %.9g" sd;
    if Stats.percentile 0.0 xs <> Stats.min xs then
      failf "percentile 0 differs from min";
    if Stats.percentile 100.0 xs <> Stats.max xs then
      failf "percentile 100 differs from max";
    let bins = 1 + Prng.int rng 8 in
    let h = Stats.histogram ~bins ~lo:(-10.0) ~hi:10.0 xs in
    if Array.fold_left ( + ) 0 h <> n then
      failf "histogram counts sum to %d, not %d (out-of-range samples lost)"
        (Array.fold_left ( + ) 0 h)
        n;
    let hd = Stats.histogram ~bins ~lo:5.0 ~hi:5.0 xs in
    if hd.(0) <> n then
      failf "degenerate-range histogram put %d of %d samples in bucket 0"
        hd.(0) n;
    (* Prng: determinism across copy, permutation property, distinctness. *)
    let arr = Array.init (4 + Prng.int rng 12) (fun i -> i) in
    let sorted x =
      let c = Array.copy x in
      Array.sort compare c;
      c
    in
    let a = Prng.copy rng and b = Prng.copy rng in
    let sa = Prng.sample a (Array.length arr) arr in
    let sb = Prng.sample b (Array.length arr) arr in
    if sa <> sb then failf "Prng.sample diverged between copied generators";
    if sorted sa <> sorted arr then failf "Prng.sample k=n is not a permutation";
    let ca = Array.copy arr and cb = Array.copy arr in
    let a = Prng.copy rng and b = Prng.copy rng in
    Prng.shuffle a ca;
    Prng.shuffle b cb;
    if ca <> cb then failf "Prng.shuffle diverged between copied generators";
    if sorted ca <> sorted arr then failf "Prng.shuffle is not a permutation";
    let kk = 1 + Prng.int rng (Array.length arr) in
    let s = Prng.sample rng kk arr in
    if Array.length s <> kk then
      failf "Prng.sample returned %d of %d elements" (Array.length s) kk;
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun v ->
        if Hashtbl.mem seen v then failf "Prng.sample drew a duplicate"
        else Hashtbl.add seen v ())
      s
  in
  {
    name = "stats-prng-contracts";
    doc = "Stats aggregates and Prng sampling honour their documented contracts";
    check;
  }

(* ---- 11. the normalizer is exact; GK and the opt detour above it ---- *)

(* The normalizer, the per-destination LP, must equal the per-pair exact
   min-MLU LP within 1e-9 relative: with no failure, one sampled
   physical failure and two, which can cut a generated bridge and so
   drop demand and keep artificials in the LP. Garg-Konemann at
   epsilon 0.06 returns the MLU of a feasible routing, so it cannot beat
   the exact optimum, and the FPTAS guarantee puts it within
   1/(1-eps)^3 of it (1.204). It must also converge before its
   iteration cap.

   On an OSPF base, the opt detour's reroute LP, started from shortest
   detours, must reach the MLU of its two-phase reference build
   ({!Reroute_ref}) within 1e-9 relative, and [Opt_detour.evaluate]'s
   bottleneck must be that MLU. When the detour loses no failed link it
   delivers all demand, so its bottleneck cannot beat the exact
   optimum: the lower half of the sandwich exact <= opt detour <= R3. *)
let mcf_bounds =
  let epsilon = 0.06 in
  let check (case : Case.t) =
    let g = Case.graph case in
    let pairs, demands = Case.commodities case in
    let base = ospf_base g pairs in
    let bound = 1.0 /. ((1.0 -. epsilon) ** 3.0) in
    let phys = Scenarios.physical_links g in
    let rng = Prng.create case.sub_seed in
    let down = phys.(Prng.int rng (Array.length phys)) in
    let two = Array.to_list (Prng.sample rng (Int.min 2 (Array.length phys)) phys) in
    let within what u reference =
      if Float.abs (u -. reference) > 1e-9 *. reference then
        failf "%s: %.17g differs from the two-phase reroute LP's %.17g" what u reference
    in
    List.iter
      (fun (what, failed) ->
        let gk = fst (Cf.min_mlu_routing g ~failed ~epsilon ~pairs ~demands ()) in
        if gk.Cf.capped then
          failf "%s: GK stopped at its %d-iteration cap" what Cf.max_iterations;
        match Cf.min_mlu_exact g ~failed ~pairs ~demands () with
        | Error e -> failf "%s: exact LP failed: %s" what e
        | Ok (exact, _) -> (
          (match R3_mcf.Flow_lp.min_mlu_dest g ~failed ~pairs ~demands with
          | Error e -> failf "%s: per-destination LP failed: %s" what e
          | Ok u ->
            if Float.abs (u -. exact) > 1e-9 *. exact then
              failf "%s: per-destination MLU %.17g differs from the exact optimum %.17g"
                what u exact);
          if gk.Cf.mlu < exact -. 1e-6 then
            failf "%s: GK MLU %.9g below the exact optimum %.9g" what gk.Cf.mlu exact;
          if gk.Cf.mlu > exact *. bound then
            failf "%s: GK MLU %.9g above exact %.9g / (1 - %g)^3 = %.9g" what gk.Cf.mlu
              exact epsilon (exact *. bound);
          let lp_pairs, lp_demands, background =
            Reroute_ref.opt_detour_lp g ~failed ~base ~demands
          in
          let reference =
            match
              Reroute_ref.min_mlu g ~failed ~pairs:lp_pairs ~demands:lp_demands ~background
            with
            | Error e -> failf "%s: two-phase reroute LP failed: %s" what e
            | Ok u -> u
          in
          (match
             R3_mcf.Flow_lp.min_mlu g ~failed ~pairs:lp_pairs ~demands:lp_demands ~background
           with
          | Error e -> failf "%s: started reroute LP failed: %s" what e
          | Ok (u, _) -> within (what ^ ": started reroute LP") u reference);
          match R3_baselines.Opt_detour.evaluate g ~failed ~base ~demands () with
          | Error e -> failf "%s: %s" what e
          | Ok outcome ->
            let b = R3_baselines.Types.bottleneck g ~failed outcome in
            within (what ^ ": opt detour bottleneck") b reference;
            (* Lossless: every loaded failed link became a commodity. *)
            let loaded = List.filter (fun e -> background.(e) > 0.0) (G.failed_list failed) in
            if List.length loaded = Array.length lp_pairs && b < exact *. (1.0 -. 1e-9) then
              failf "%s: opt detour bottleneck %.17g below the exact optimum %.17g" what b
                exact))
      [
        ("no failure", G.no_failures g);
        (Printf.sprintf "physical link %d failed" down, G.fail_bidir g [ down ]);
        ( Printf.sprintf "physical links [%s] failed"
            (String.concat "; " (List.map string_of_int two)),
          G.fail_bidir g two );
      ]
  in
  {
    name = "mcf-bounds";
    doc =
      "the per-destination normalizer equals the exact min-MLU LP; Garg-Konemann \
       converges between exact and exact / (1 - eps)^3; the started opt-detour LP \
       equals its two-phase build, and a lossless detour is no better than exact";
    check;
  }

let all =
  [
    lp_agree;
    routing_dense_reference;
    reorder_independence;
    online_vs_batch;
    checkpoint_resume;
    plan_store;
    codec;
    theorems;
    scenario_sampling;
    stats_prng;
    mcf_bounds;
  ]

let names = List.map (fun o -> o.name) all
let find name = List.find_opt (fun o -> o.name = name) all
