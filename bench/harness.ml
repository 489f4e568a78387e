(* Shared machinery for the experiment harness: deterministic experiment
   contexts, plan caching (offline LPs are the expensive step - R3's whole
   point is that they run once), and paper-style table printing. *)

module G = R3_net.Graph
module Traffic = R3_net.Traffic
module Topology = R3_net.Topology
module Offline = R3_core.Offline
module Eval = R3_sim.Eval

let quick = ref true

(* Smoke mode (--smoke / @bench-check): tiny fixtures, no JSON artifacts —
   just proves the bench code paths run. *)
let smoke = ref false

(* ---------- plan cache ---------- *)

let cache_version = 7

let cache_dir = ".bench-cache"

(* Cached plans live in the Plan_store snapshot format (versioned,
   CRC-checked — see DESIGN.md §16), so a stale or torn cache entry is
   detected and recomputed instead of misread. *)
let cached_plan key (compute : unit -> (Offline.plan, string) result) =
  let path = Filename.concat cache_dir (Printf.sprintf "v%d-%s.plan" cache_version key) in
  let recompute () =
    match compute () with
    | Ok plan ->
      R3_core.Plan_store.save path plan;
      Ok plan
    | Error _ as e -> e
  in
  if Sys.file_exists path then
    match R3_core.Plan_store.load path with
    | Ok (plan, _config) -> Ok plan
    | Error _ -> recompute ()
  else recompute ()

(* ---------- experiment context ---------- *)

type context = {
  g : G.t;
  tag : string;
  base_tm : Traffic.t;  (** peak traffic matrix *)
  pairs : (G.node * G.node) array;
  demands : float array;  (** peak demands *)
  weights : float array;  (** optimized IGP weights *)
  plan_k : int;  (** physical-failure protection level of the R3 plans *)
}

(* Scale a gravity matrix so the optimized-OSPF MLU at peak is [target]. *)
let scaled_tm g ~seed ~target ~weights =
  let rng = R3_util.Prng.create seed in
  let tm0 = Traffic.gravity rng g ~load_factor:0.4 () in
  let pairs, demands = Traffic.commodities tm0 in
  let r = R3_net.Ospf.routing g ~weights ~pairs () in
  let mlu = R3_net.Routing.mlu g ~loads:(R3_net.Routing.loads g ~demands r) in
  if mlu <= 0.0 then tm0 else Traffic.scale tm0 (target /. mlu)

let make_context ?(target_mlu = 0.5) ?(plan_k = 1) ~tag ~seed g =
  let rng = R3_util.Prng.create (seed + 13) in
  let tm_probe = Traffic.gravity rng g ~load_factor:0.4 () in
  let weights =
    R3_te.Igp_opt.optimize
      ~config:{ R3_te.Igp_opt.default_config with R3_te.Igp_opt.iterations = 250; seed }
      g [ tm_probe ]
  in
  let base_tm = scaled_tm g ~seed ~target:target_mlu ~weights in
  let pairs, demands = Traffic.commodities base_tm in
  { g; tag; base_tm; pairs; demands; weights; plan_k }

(* Real hourly matrices differ in structure, not just total volume; a
   deterministic per-OD lognormal jitter on top of the diurnal profile
   keeps per-interval ratios from collapsing to constants. *)
let interval_factor ctx ~interval k =
  let rng = R3_util.Prng.create ((interval * 7919) + (k * 104729) + 5) in
  ignore ctx;
  Traffic.diurnal_factor ~interval *. exp (0.25 *. R3_util.Prng.gaussian rng)

let interval_demands ctx ~interval =
  Array.mapi (fun k d -> d *. interval_factor ctx ~interval k) ctx.demands

let interval_tm ctx ~interval =
  let n = G.num_nodes ctx.g in
  let tm = Traffic.zeros n in
  Array.iteri
    (fun k (a, b) ->
      tm.(a).(b) <- ctx.demands.(k) *. interval_factor ctx ~interval k)
    ctx.pairs;
  tm

(* Evaluation scenarios fail {e physical} links (both directions together),
   so the matching envelope is the structured one of Section 3.5 with one
   SRLG per bidirectional pair and [k] concurrent events: protecting
   against k physical failures is far less demanding than 2k arbitrary
   directed failures (a degree-2 PoP can survive the former, never the
   latter). Like the paper, the protection envelope carries the
   operational risk model: per-pair SRLGs (any k physical failures) plus
   whatever fiber-sharing SRLGs and maintenance groups the context
   declares - the events the figures then replay. *)
let structured_plan ?(extra_srlgs = []) ?(mlgs = []) ~key ~k ctx base =
  cached_plan key (fun () ->
      let cfg =
        { (Offline.default_config ~f:k) with solve_method = Offline.Constraint_gen }
      in
      let groups =
        { R3_core.Structured.srlgs = R3_core.Structured.physical_srlgs ctx.g @ extra_srlgs; mlgs; k }
      in
      R3_core.Structured.compute cfg ctx.g ctx.base_tm groups (Offline.Fixed base))

(* OSPF+R3 plan over the context's peak matrix. *)
let ospf_r3_plan ?k ?(extra_srlgs = []) ?(mlgs = []) ctx =
  let k = Option.value k ~default:ctx.plan_k in
  let base = R3_net.Ospf.routing ctx.g ~weights:ctx.weights ~pairs:ctx.pairs () in
  structured_plan ~extra_srlgs ~mlgs
    ~key:
      (Printf.sprintf "%s-ospfr3-k%d-s%dm%d" ctx.tag k (List.length extra_srlgs)
         (List.length mlgs))
    ~k ctx base

(* MPLS-ff+R3: near-optimal flow base (GK) + protection LP. The paper's
   joint LP (7) is used verbatim on small fixtures (see tests); at
   evaluation scale we substitute the GK base, which preserves the
   "better base => better protected performance" relationship (DESIGN §5). *)
let mplsff_r3_plan ?k ?(extra_srlgs = []) ?(mlgs = []) ctx =
  let k = Option.value k ~default:ctx.plan_k in
  let _, base =
    R3_mcf.Concurrent_flow.min_mlu_routing ctx.g ~epsilon:0.04 ~pairs:ctx.pairs
      ~demands:ctx.demands ()
  in
  structured_plan ~extra_srlgs ~mlgs
    ~key:
      (Printf.sprintf "%s-mplsffr3-k%d-s%dm%d" ctx.tag k (List.length extra_srlgs)
         (List.length mlgs))
    ~k ctx base

let env_for ctx ?(interval = 14) ?(extra_srlgs = []) ?(mlgs = []) () =
  let demands = interval_demands ctx ~interval in
  let ospf_r3 =
    match ospf_r3_plan ~extra_srlgs ~mlgs ctx with Ok p -> Some p | Error _ -> None
  in
  let mplsff_r3 =
    match mplsff_r3_plan ~extra_srlgs ~mlgs ctx with Ok p -> Some p | Error _ -> None
  in
  Eval.make_env ctx.g ~weights:ctx.weights ~pairs:ctx.pairs ~demands ?ospf_r3
    ?mplsff_r3 ()

(* ---------- printing ---------- *)

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let row_format widths cells =
  List.iteri
    (fun i c ->
      let w = try List.nth widths i with _ -> 12 in
      Printf.printf "%-*s" w c)
    cells;
  print_newline ()

(* Print sorted per-scenario curves as decile rows, one line per series -
   the textual form of the paper's "sorted by performance ratio" plots. *)
let print_sorted_curves ~label names (curves : float array array) =
  Printf.printf "%-18s" label;
  List.iter (fun p -> Printf.printf "%8s" p)
    [ "p0"; "p10"; "p25"; "p50"; "p75"; "p90"; "p100" ];
  Printf.printf "%8s\n" "mean";
  Array.iteri
    (fun i curve ->
      Printf.printf "%-18s" (List.nth names i);
      if Array.length curve = 0 then print_string "  (no data)"
      else
        List.iter
          (fun p -> Printf.printf "%8.3f" (R3_util.Stats.percentile p curve))
          [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 100.0 ];
      if Array.length curve > 0 then Printf.printf "%8.3f" (R3_util.Stats.mean curve);
      print_newline ())
    curves;
  flush stdout

let note fmt = Printf.printf ("note: " ^^ fmt ^^ "\n%!")

(* ---------- metrics ---------- *)

(* The BENCH_*.json `metrics` section: whatever the instrumented hot paths
   recorded while the bench ran (pivot counts, CG rounds, MCF phases,
   sweep cache traffic). Build the doc's field list with this last, after
   every case has run. *)
let metrics_section () = ("metrics", R3_util.Metrics.to_json ())

(* Recording overhead of the observability layer: best-of wall time of [f]
   with instruments off vs on. Returns (on_s, off_s, pct); instruments are
   re-enabled afterwards even if [f] raises. *)
let metrics_overhead ~repeats f =
  let best enabled =
    R3_util.Metrics.set_enabled enabled;
    R3_util.Trace.set_enabled enabled;
    Fun.protect
      ~finally:(fun () ->
        R3_util.Metrics.set_enabled true;
        R3_util.Trace.set_enabled true)
      (fun () -> R3_util.Timer.best_of ~repeats f)
  in
  let off = best false in
  let on = best true in
  (on, off, 100.0 *. (on -. off) /. Float.max off 1e-9)
