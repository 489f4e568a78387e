(* Versioned binary snapshots of offline plans; format notes in
   plan_store.mli and DESIGN.md §16. *)

module Codec = R3_util.Codec
module Rowvec = R3_util.Rowvec
module G = R3_net.Graph
module Routing = R3_net.Routing
module W = Codec.W
module R = Codec.R

let magic = "R3PLANSS"
(* v2: the config section lost the LP-backend tag and the CG warm-start
   flag when the simplex went down to one engine. v3: routing storage
   went down to sparse rows only, so the config section lost its storage
   byte and each routing its storage and row-payload tags. v4: the config
   section lost the loop penalty, seed and the two tolerances, which are
   constants of the code that reads them. *)
let version = 4

(* [count r what ~min_bytes] reads an element count and rejects it unless
   that many elements, each at least [min_bytes] long, fit in the bytes
   left — before anything is allocated from it. *)
let count r what ~min_bytes =
  let n = R.i32 r in
  if n < 0 || n > R.remaining r / min_bytes then
    raise (R.Corrupt (Printf.sprintf "bad %s count %d" what n));
  n

(* --- graph section ----------------------------------------------------- *)

let enc_graph g =
  let w = W.create () in
  let n = G.num_nodes g and m = G.num_links g in
  W.i32 w n;
  for v = 0 to n - 1 do
    W.string w (G.node_name g v)
  done;
  W.i32 w m;
  for e = 0 to m - 1 do
    W.i32 w (G.src g e);
    W.i32 w (G.dst g e);
    W.float w (G.capacity g e);
    W.float w (G.delay g e)
  done;
  W.contents w

let dec_graph s =
  let r = R.of_string s in
  (* a name is a u32 length prefix; a link two i32s and two floats *)
  let n = count r "node" ~min_bytes:4 in
  let node_names = Array.init n (fun _ -> R.string r) in
  let m = count r "link" ~min_bytes:24 in
  let links =
    Array.init m (fun _ ->
        let a = R.i32 r in
        let b = R.i32 r in
        let cap = R.float r in
        let delay = R.float r in
        if a < 0 || a >= n || b < 0 || b >= n then
          raise (R.Corrupt "link endpoint out of range");
        (a, b, cap, delay))
  in
  R.expect_end r;
  G.create ~node_names ~links

let graph_fingerprint g = Digest.to_hex (Digest.string (enc_graph g))

(* --- config section ---------------------------------------------------- *)

let enc_option w enc = function
  | None -> W.bool w false
  | Some v ->
    W.bool w true;
    enc v

let dec_option r dec = if R.bool r then Some (dec ()) else None

let method_tag = function Offline.Dualized -> 0 | Offline.Constraint_gen -> 1

let method_of_tag = function
  | 0 -> Offline.Dualized
  | 1 -> Offline.Constraint_gen
  | n -> raise (R.Corrupt (Printf.sprintf "unknown solve method tag %d" n))

let enc_config (cfg : Offline.config) =
  let w = W.create () in
  W.i32 w cfg.f;
  enc_option w
    (fun (beta, mlu) ->
      W.float w beta;
      W.float w mlu)
    cfg.envelope;
  enc_option w (W.float w) cfg.delay_envelope;
  W.u8 w (method_tag cfg.solve_method);
  enc_option w (W.int w) cfg.max_pivots;
  W.i32 w cfg.cg_max_rounds;
  W.contents w

let dec_config s : Offline.config =
  let r = R.of_string s in
  let f = R.i32 r in
  let envelope =
    dec_option r (fun () ->
        let beta = R.float r in
        let mlu = R.float r in
        (beta, mlu))
  in
  let delay_envelope = dec_option r (fun () -> R.float r) in
  let solve_method = method_of_tag (R.u8 r) in
  let max_pivots = dec_option r (fun () -> R.int r) in
  let cg_max_rounds = R.i32 r in
  R.expect_end r;
  { f; envelope; delay_envelope; solve_method; max_pivots; cg_max_rounds }

(* --- workload section (commodities + demands) -------------------------- *)

let enc_workload ~pairs ~demands =
  let w = W.create () in
  W.i32 w (Array.length pairs);
  Array.iter
    (fun (a, b) ->
      W.i32 w a;
      W.i32 w b)
    pairs;
  W.float_array w demands;
  W.contents w

let dec_workload s =
  let r = R.of_string s in
  let nk = count r "commodity" ~min_bytes:8 in
  let pairs =
    Array.init nk (fun _ ->
        let a = R.i32 r in
        let b = R.i32 r in
        (a, b))
  in
  let demands = R.float_array r in
  if Array.length demands <> nk then
    raise (R.Corrupt "demand array does not match commodity count");
  R.expect_end r;
  (pairs, demands)

(* --- routings ---------------------------------------------------------- *)

(* A routing is its commodities, then each row's stored entries as an
   ascending index array and a value array. *)
let enc_routing w rt =
  let nk = Routing.num_commodities rt in
  W.i32 w nk;
  Array.iter
    (fun (a, b) ->
      W.i32 w a;
      W.i32 w b)
    (Routing.pairs rt);
  for k = 0 to nk - 1 do
    let row = Routing.row_vec rt k in
    let n = Rowvec.nnz row in
    W.int_array w (Array.sub (Rowvec.indices row) 0 n);
    W.float_array w (Array.sub (Rowvec.values row) 0 n)
  done

let dec_routing r g =
  (* a commodity is two i32s, its row two array length prefixes *)
  let nk = count r "routing row" ~min_bytes:16 in
  let pairs =
    Array.init nk (fun _ ->
        let a = R.i32 r in
        let b = R.i32 r in
        (a, b))
  in
  let rt = Routing.create g ~pairs in
  for k = 0 to nk - 1 do
    let idx = R.int_array r in
    let vals = R.float_array r in
    let n = Array.length idx in
    if Array.length vals <> n then
      raise (R.Corrupt "row index/value length mismatch");
    for i = 1 to n - 1 do
      if idx.(i - 1) >= idx.(i) then
        raise (R.Corrupt "row indices not strictly ascending")
    done;
    try Routing.set_row_vec rt k (Rowvec.of_sorted idx vals n)
    with Invalid_argument msg -> raise (R.Corrupt msg)
  done;
  rt

(* A decoded routing must have one row per expected commodity, with the
   same (src, dst) pairs: the fingerprint does not cover the routings, and
   [Reconfig.of_plan] indexes them by commodity and by link. *)
let expect_rows what rt pairs =
  let got = Routing.pairs rt in
  if Array.length got <> Array.length pairs then
    raise
      (R.Corrupt
         (Printf.sprintf "%s routing has %d rows, expected %d" what (Array.length got)
            (Array.length pairs)));
  if got <> pairs then
    raise (R.Corrupt (Printf.sprintf "%s routing rows do not match its commodities" what))

(* --- plan snapshots ---------------------------------------------------- *)

let sections ~config (plan : Offline.plan) =
  ( enc_graph plan.graph,
    enc_config config,
    enc_workload ~pairs:plan.pairs ~demands:plan.demands )

let fingerprint_of_sections gs cs ws =
  Digest.to_hex (Digest.string (gs ^ cs ^ ws))

let fingerprint ~config plan =
  let gs, cs, ws = sections ~config plan in
  fingerprint_of_sections gs cs ws

let save path ~config (plan : Offline.plan) =
  let gs, cs, ws = sections ~config plan in
  let w = W.create ~size:(1 lsl 16) () in
  W.string w (fingerprint_of_sections gs cs ws);
  W.string w gs;
  W.string w cs;
  W.string w ws;
  enc_routing w plan.base;
  enc_routing w plan.protection;
  W.float w plan.mlu;
  W.i32 w plan.f;
  W.int w plan.lp_vars;
  W.int w plan.lp_rows;
  W.int w plan.lp_pivots;
  Codec.write_framed path ~magic ~version (W.contents w)

let decode_payload payload =
  let r = R.of_string payload in
  let stored_fp = R.string r in
  let gs = R.string r in
  let cs = R.string r in
  let ws = R.string r in
  let actual_fp = fingerprint_of_sections gs cs ws in
  if stored_fp <> actual_fp then
    raise
      (R.Corrupt
         (Printf.sprintf "fingerprint mismatch (stored %s, computed %s)"
            stored_fp actual_fp));
  let graph = dec_graph gs in
  let config = dec_config cs in
  let pairs, demands = dec_workload ws in
  let base = dec_routing r graph in
  expect_rows "base" base pairs;
  let protection = dec_routing r graph in
  expect_rows "protection" protection (R3_mcf.Flow_lp.link_pairs graph);
  let mlu = R.float r in
  let f = R.i32 r in
  let lp_vars = R.int r in
  let lp_rows = R.int r in
  let lp_pivots = R.int r in
  R.expect_end r;
  let plan : Offline.plan =
    { graph; f; pairs; demands; base; protection; mlu; lp_vars; lp_rows; lp_pivots }
  in
  (plan, config, actual_fp, gs)

let load ?expect_graph path =
  match Codec.read_framed path ~magic ~version with
  | Error _ as e -> e
  | Ok payload -> (
    match decode_payload payload with
    | exception R.Corrupt msg ->
      Error (Printf.sprintf "%s: malformed plan snapshot: %s" path msg)
    | plan, config, _fp, gs -> (
      match expect_graph with
      | Some g when enc_graph g <> gs ->
        Error
          (Printf.sprintf
             "%s: plan was solved for a different topology (%d nodes / %d \
              links in snapshot)"
             path
             (G.num_nodes plan.graph)
             (G.num_links plan.graph))
      | _ -> Ok (plan, config)))

type info = {
  version : int;
  bytes : int;
  fingerprint : string;
  nodes : int;
  links : int;
  commodities : int;
  f : int;
  mlu : float;
  config : Offline.config;
  base_nnz : int;
  protection_nnz : int;
}

let inspect path =
  match Codec.read_framed path ~magic ~version with
  | Error _ as e -> e
  | Ok payload -> (
    match decode_payload payload with
    | exception R.Corrupt msg ->
      Error (Printf.sprintf "%s: malformed plan snapshot: %s" path msg)
    | plan, config, fp, _gs ->
      let bytes = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
      Ok
        {
          version;
          bytes;
          fingerprint = fp;
          nodes = G.num_nodes plan.graph;
          links = G.num_links plan.graph;
          commodities = Array.length plan.pairs;
          f = plan.f;
          mlu = plan.mlu;
          config;
          base_nnz = Routing.nnz plan.base;
          protection_nnz = Routing.nnz plan.protection;
        })
