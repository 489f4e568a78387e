module G = R3_net.Graph

(* The paper's evaluation parameters: k = 10 slices, perturbation
   strength b = 3, and the seed of the slices' perturbations. *)
let slices = 10
let b = 3.0
let seed = 97

(* Degree-based perturbation from the paper: Weight(a,b,i,j) =
   (degree i + degree j) / degree_max, with a = 0. *)
let slice_weights g base =
  let n = G.num_nodes g in
  let degree = Array.make n 0 in
  for e = 0 to G.num_links g - 1 do
    degree.(G.src g e) <- degree.(G.src g e) + 1
  done;
  let deg_max = Array.fold_left Int.max 1 degree in
  let rng = R3_util.Prng.create seed in
  Array.init slices (fun s ->
      if s = 0 then Array.copy base
      else
        Array.mapi
          (fun e w ->
            let i = G.src g e and j = G.dst g e in
            let wt = float_of_int (degree.(i) + degree.(j)) /. float_of_int deg_max in
            (* Multiplier drawn from [a, b * wt] with a = 0: factors below 1
               let slices genuinely reorder paths (a floor keeps weights
               positive). *)
            let u = R3_util.Prng.float rng 1.0 in
            w *. Float.max 0.5 (u *. b *. wt))
          base)

(* [tables.(dst).(s)]: slice [s]'s {!R3_net.Spf.in_tree} next hops
   toward [dst] on the unfailed topology. *)
type t = { graph : G.t; tables : int array array array }

let create g ~weights =
  let slice_ws = slice_weights g weights in
  let failed = G.no_failures g in
  {
    graph = g;
    tables =
      Array.init (G.num_nodes g) (fun dst ->
          Array.map (fun weights -> snd (R3_net.Spf.in_tree g ~failed ~weights ~dst)) slice_ws);
  }

let evaluate t ~failed ~pairs ~demands =
  let g = t.graph in
  let m = G.num_links g in
  let loads = Array.make m 0.0 in
  let total = Array.fold_left ( +. ) 0.0 demands in
  let delivered = ref 0.0 in
  (* Group OD pairs by destination: next-hop tables are per destination. *)
  let by_dst = Hashtbl.create 16 in
  Array.iteri
    (fun k (_, b) ->
      let l = Option.value (Hashtbl.find_opt by_dst b) ~default:[] in
      Hashtbl.replace by_dst b (k :: l))
    pairs;
  let max_hops = 10 * G.num_nodes g in
  let min_flow = 1e-9 in
  Hashtbl.iter
    (fun b ks ->
      let tables = t.tables.(b) in
      let nslices = Array.length tables in
      (* Slice [s]'s next hop at [v] if it is alive, else -1. *)
      let alive_hop s v =
        let e = tables.(s).(v) in
        if e >= 0 && not failed.(e) then e else -1
      in
      List.iter
        (fun k ->
          let a, _ = pairs.(k) in
          let d = demands.(k) in
          if d > 0.0 then begin
            (* Flow propagation over (node, slice) states, level by level. *)
            let frontier = Hashtbl.create 16 in
            Hashtbl.replace frontier (a, 0) d;
            let hops = ref 0 in
            while Hashtbl.length frontier > 0 && !hops < max_hops do
              incr hops;
              let next = Hashtbl.create 16 in
              let push key flow =
                let prev = Option.value (Hashtbl.find_opt next key) ~default:0.0 in
                Hashtbl.replace next key (prev +. flow)
              in
              let forward s e flow =
                loads.(e) <- loads.(e) +. flow;
                push (G.dst g e, s) flow
              in
              Hashtbl.iter
                (fun (v, s) flow ->
                  if flow >= min_flow then begin
                    if v = b then delivered := !delivered +. flow
                    else begin
                      let e = alive_hop s v in
                      if e >= 0 then forward s e flow
                      else begin
                        (* Splice: uniform split across other slices with a
                           live next hop here. *)
                        let alts =
                          List.init nslices Fun.id
                          |> List.filter (fun s' -> s' <> s && alive_hop s' v >= 0)
                        in
                        let n_alt = List.length alts in
                        if n_alt > 0 then begin
                          let share = flow /. float_of_int n_alt in
                          List.iter (fun s' -> forward s' (alive_hop s' v) share) alts
                        end
                      end
                    end
                  end)
                frontier;
              Hashtbl.reset frontier;
              Hashtbl.iter (fun k v -> Hashtbl.replace frontier k v) next
            done;
            (* Anything still in flight at the hop budget: delivered if at
               the destination, lost otherwise. *)
            Hashtbl.iter
              (fun (v, _) flow -> if v = b then delivered := !delivered +. flow)
              frontier
          end)
        ks)
    by_dst;
  let delivered = if total <= 0.0 then 1.0 else !delivered /. total in
  { Types.loads; delivered }
