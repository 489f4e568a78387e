module G = R3_net.Graph
module Routing = R3_net.Routing

type network = {
  graph : G.t;
  base : Routing.t;
  pair_index : (G.node * G.node, int) Hashtbl.t;
  fib : Fib.t;
  failed : G.link_set;
}

(* Seed of the per-router flow-hash salts. *)
let hash_seed = 42

let make g ~base ~fib ?failed () =
  let failed = match failed with Some f -> f | None -> G.no_failures g in
  let pair_index = Hashtbl.create 64 in
  Array.iteri (fun k pr -> Hashtbl.replace pair_index pr k) (Routing.pairs base);
  { graph = g; base; pair_index; fib; failed }

type trace = {
  links : G.link list;
  delivered : bool;
  max_stack_depth : int;
  rtt_ms : float;
}

let max_stack = 8

let forward net ~flow ~src ~dst =
  let g = net.graph in
  match Hashtbl.find_opt net.pair_index (src, dst) with
  | None -> Error "forward: unknown OD pair"
  | Some k ->
    let max_hops = 8 * G.num_nodes g in
    let traversed = ref [] in
    let deepest = ref 0 in
    let rec step v stack hops =
      deepest := Int.max !deepest (List.length stack);
      if hops > max_hops then Error "forward: hop budget exceeded"
      else if v = dst && stack = [] then begin
        let links = List.rev !traversed in
        let rtt =
          2.0 *. List.fold_left (fun a e -> a +. G.delay g e) 0.0 links
        in
        Ok { links; delivered = true; max_stack_depth = !deepest; rtt_ms = rtt }
      end
      else begin
        match stack with
        | label :: rest when G.dst g (Fib.link_of_label label) = v ->
          (* Reached the protected link's tail: pop and resume below. *)
          step v rest (hops + 1)
        | label :: _ -> begin
          (* Follow the protection label's NHLFEs at this router. *)
          match Hashtbl.find_opt net.fib.Fib.fibs.(v).Fib.ilm label with
          | None -> Error "forward: no protection entry (dropped)"
          | Some fwd ->
            let salt = Flow_hash.router_salt ~seed:hash_seed ~router:v in
            let weights = Array.map (fun n -> n.Fib.ratio) fwd.Fib.nhlfes in
            let idx = Flow_hash.pick ~salt flow weights in
            let e = fwd.Fib.nhlfes.(idx).Fib.out_link in
            if net.failed.(e) then begin
              (* Transient stacking: protect the protection path. *)
              if List.length stack >= max_stack then
                Error "forward: label stack overflow (dropped)"
              else step v (Fib.label_of_link e :: stack) (hops + 1)
            end
            else begin
              traversed := e :: !traversed;
              step (G.dst g e) stack (hops + 1)
            end
        end
        | [] -> begin
          (* Base forwarding: hash over the base splitting ratios here. *)
          let outs = G.out_links g v in
          let weights = Array.map (fun e -> Routing.get net.base k e) outs in
          let total = Array.fold_left ( +. ) 0.0 weights in
          if total <= 1e-12 then Error "forward: no base next hop (dropped)"
          else begin
            let salt = Flow_hash.router_salt ~seed:hash_seed ~router:v in
            let idx = Flow_hash.pick ~salt flow weights in
            let e = outs.(idx) in
            if net.failed.(e) then
              step v [ Fib.label_of_link e ] (hops + 1)
            else begin
              traversed := e :: !traversed;
              step (G.dst g e) [] (hops + 1)
            end
          end
        end
      end
    in
    step src [] 0

let split_frequencies net ~rng ~count ~src ~dst =
  let m = G.num_links net.graph in
  let counts = Array.make m 0 in
  let done_ = ref 0 in
  for _ = 1 to count do
    let flow =
      {
        Flow_hash.src_ip = R3_util.Prng.bits rng land 0xFFFFFFFF;
        dst_ip = R3_util.Prng.bits rng land 0xFFFFFFFF;
        src_port = R3_util.Prng.int rng 65536;
        dst_port = R3_util.Prng.int rng 65536;
      }
    in
    match forward net ~flow ~src ~dst with
    | Ok trace ->
      incr done_;
      List.iter (fun e -> counts.(e) <- counts.(e) + 1) trace.links
    | Error _ -> ()
  done;
  let denom = float_of_int (Int.max 1 !done_) in
  Array.map (fun c -> float_of_int c /. denom) counts
