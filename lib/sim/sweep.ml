(* Prefix-sharing scenario-sweep engine.

   Scenarios are canonical sorted sets of physical links, so the whole
   scenario population forms a prefix tree; Theorem 3 (order-independence
   of R3's online rescaling) means the reconfigured state after failing
   {e1..ej} is the same whichever order the links fail in, so the state at
   a tree node serves every scenario below it. The engine walks the tree
   depth-first, advancing the R3 algorithms' states with the copy-on-write
   [Reconfig.fail] over singleton scenario deltas (bit-identical to the
   naive per-scenario rebuild), and evaluates per-scenario algorithms at
   the leaves. The forest's depth-1 subtrees are independent, so
   [Parallel.map] fans the walk out over them; concatenating their cells
   in child order reproduces the serial DFS preorder exactly, and output
   never depends on the pool size. *)

module G = R3_net.Graph
module Reconfig = R3_core.Reconfig

type metric = [ `Bottleneck | `Ratio ]

module Obs = struct
  module M = R3_util.Metrics

  let runs = M.counter "sweep.runs"
  let scenarios = M.counter "sweep.scenarios"
  let tree_nodes = M.counter "sweep.tree_nodes"
  let cow_steps = M.counter "sweep.cow_steps"

  (* Incremented in the executing domain, one per depth-1 subtree. The
     per-shard breakdown is the per-domain task count. *)
  let tasks = M.counter "sweep.tasks"
end

type summary = {
  algorithms : Eval.algorithm array;
  metric : metric;
  scenario_count : int;
  curves : float array array;
  undefined : int array;
  worst : (Scenario.t * float) option array;
}

(* ---- scenario prefix tree ---- *)

type tree = {
  link : int;  (* physical link failed on entering this node *)
  mutable terminal : Scenario.t option;
  mutable children : tree list;  (* built newest-first, reversed once *)
}

(* Scenarios arrive sorted lexicographically, so each insertion extends
   either the newest child chain or opens a new sibling — O(total size). *)
let build_forest scenarios =
  let scenarios = List.sort_uniq Scenario.compare scenarios in
  let root = { link = -1; terminal = None; children = [] } in
  let rec insert node phys sc =
    match phys with
    | [] -> node.terminal <- Some sc
    | e :: rest ->
      let child =
        match node.children with
        | c :: _ when c.link = e -> c
        | _ ->
          let c = { link = e; terminal = None; children = [] } in
          node.children <- c :: node.children;
          c
      in
      insert child rest sc
  in
  List.iter (fun sc -> insert root (Scenario.physical sc) sc) scenarios;
  let rec finalize n =
    n.children <- List.rev n.children;
    List.iter finalize n.children
  in
  finalize root;
  root

(* ---- per-scenario evaluation ---- *)

type cell = {
  scenario : Scenario.t;
  values : float array;  (* bottleneck intensity per algorithm *)
  opt : float;  (* nan under `Bottleneck *)
}

let eval_cell env algs metric sc states =
  let values =
    Array.mapi
      (fun i alg ->
        match states.(i) with
        | Some st -> Reconfig.mlu st
        | None -> Eval.scenario_bottleneck env alg sc)
      algs
  in
  let opt = match metric with `Bottleneck -> nan | `Ratio -> Eval.optimal env sc in
  { scenario = sc; values; opt }

(* Advance the R3 algorithms' states across one tree edge: COW-fail the
   node's singleton delta into every stateful slot ([None] slots are
   per-scenario algorithms). *)
let advance_states env node states =
  R3_util.Metrics.incr Obs.tree_nodes;
  let delta = Scenario.of_links env.Eval.graph [ node.link ] in
  let cow = ref 0 in
  let states =
    Array.map
      (Option.map (fun st ->
           incr cow;
           Reconfig.fail st delta))
      states
  in
  R3_util.Metrics.add Obs.cow_steps !cow;
  states

(* Depth-first walk of one depth-1 subtree: at most one root-to-leaf
   path of states is live at a time. COW states are safe to fold from a
   shared parent concurrently (DESIGN.md §9: sealing is an atomic
   generation bump). *)
let eval_subtree env algs metric root_states subtree =
  R3_util.Metrics.incr Obs.tasks;
  let out = ref [] in
  let rec walk node states =
    let states = advance_states env node states in
    (match node.terminal with
    | Some sc -> out := eval_cell env algs metric sc states :: !out
    | None -> ());
    List.iter (fun c -> walk c states) node.children
  in
  walk subtree root_states;
  Array.of_list (List.rev !out)

(* ---- the sweep ---- *)

let run ?(metric = `Ratio) env ~algorithms scenarios =
  R3_util.Metrics.incr Obs.runs;
  R3_util.Trace.with_span "sweep.run" @@ fun () ->
  let algs = Array.of_list algorithms in
  let forest = build_forest scenarios in
  let root_states = Array.map (fun alg -> Eval.r3_root env alg) algs in
  let subtree_cells =
    R3_util.Parallel.map
      (eval_subtree env algs metric root_states)
      (Array.of_list forest.children)
  in
  let empty_cells =
    match forest.terminal with
    | Some sc -> [| eval_cell env algs metric sc root_states |]
    | None -> [||]
  in
  let cells = Array.concat (empty_cells :: Array.to_list subtree_cells) in
  R3_util.Metrics.add Obs.scenarios (Array.length cells);
  R3_util.Trace.add_attr "scenarios" (R3_util.Trace.Int (Array.length cells));
  let n_alg = Array.length algs in
  let curves = Array.make n_alg [||] in
  let undefined = Array.make n_alg 0 in
  let worst = Array.make n_alg None in
  for i = 0 to n_alg - 1 do
    let vals = ref [] in
    let undef = ref 0 in
    let w = ref None in
    Array.iter
      (fun c ->
        let v =
          match metric with
          | `Bottleneck -> c.values.(i)
          | `Ratio -> if c.opt > 0.0 then c.values.(i) /. c.opt else nan
        in
        if Float.is_nan v then incr undef
        else begin
          vals := v :: !vals;
          match !w with
          | Some (_, best) when best >= v -> ()
          | _ -> w := Some (c.scenario, v)
        end)
      cells;
    let arr = Array.of_list !vals in
    Array.sort Float.compare arr;
    curves.(i) <- arr;
    undefined.(i) <- !undef;
    worst.(i) <- !w
  done;
  {
    algorithms = algs;
    metric;
    scenario_count = Array.length cells;
    curves;
    undefined;
    worst;
  }

let curves ?metric env ~algorithms scenarios =
  (run ?metric env ~algorithms scenarios).curves
