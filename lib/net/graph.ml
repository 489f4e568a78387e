type node = int
type link = int

type t = {
  node_names : string array;
  name_index : (string, int) Hashtbl.t;
  link_src : int array;
  link_dst : int array;
  link_capacity : float array;
  link_delay : float array;
  out_links : int array array;
  in_links : int array array;
  reverse : int array;  (* -1 when the opposite direction is absent *)
  pair_index : (int, int) Hashtbl.t;  (* src * n + dst -> link id *)
}

let create ~node_names ~links =
  let n = Array.length node_names in
  let m = Array.length links in
  let link_src = Array.make m 0
  and link_dst = Array.make m 0
  and link_capacity = Array.make m 0.0
  and link_delay = Array.make m 0.0 in
  let pair_index = Hashtbl.create (2 * m) in
  Array.iteri
    (fun e (a, b, cap, dly) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg (Printf.sprintf "Graph.create: link %d endpoint out of range" e);
      if a = b then invalid_arg (Printf.sprintf "Graph.create: self-loop at node %d" a);
      if cap <= 0.0 then
        invalid_arg (Printf.sprintf "Graph.create: nonpositive capacity on link %d" e);
      if dly < 0.0 then
        invalid_arg (Printf.sprintf "Graph.create: negative delay on link %d" e);
      (* Parallel links are allowed (Fig. 1 of the paper uses them);
         [find_link] returns the first one registered. *)
      let key = (a * n) + b in
      if not (Hashtbl.mem pair_index key) then Hashtbl.add pair_index key e;
      link_src.(e) <- a;
      link_dst.(e) <- b;
      link_capacity.(e) <- cap;
      link_delay.(e) <- dly)
    links;
  let out_count = Array.make n 0 and in_count = Array.make n 0 in
  for e = 0 to m - 1 do
    out_count.(link_src.(e)) <- out_count.(link_src.(e)) + 1;
    in_count.(link_dst.(e)) <- in_count.(link_dst.(e)) + 1
  done;
  let out_links = Array.init n (fun v -> Array.make out_count.(v) 0)
  and in_links = Array.init n (fun v -> Array.make in_count.(v) 0) in
  let out_fill = Array.make n 0 and in_fill = Array.make n 0 in
  for e = 0 to m - 1 do
    let a = link_src.(e) and b = link_dst.(e) in
    out_links.(a).(out_fill.(a)) <- e;
    out_fill.(a) <- out_fill.(a) + 1;
    in_links.(b).(in_fill.(b)) <- e;
    in_fill.(b) <- in_fill.(b) + 1
  done;
  (* Pair opposite-direction links one-to-one so parallel links each get a
     distinct reverse partner. *)
  let reverse = Array.make m (-1) in
  let by_pair = Hashtbl.create m in
  (* Buckets are consed newest-first, then reversed once: link order in
     each bucket must stay ascending (pairing picks the head), and the
     append-per-link alternative is quadratic in the number of parallel
     links. *)
  for e = 0 to m - 1 do
    let key = (link_src.(e) * n) + link_dst.(e) in
    let q = Option.value (Hashtbl.find_opt by_pair key) ~default:[] in
    Hashtbl.replace by_pair key (e :: q)
  done;
  Hashtbl.filter_map_inplace (fun _ q -> Some (List.rev q)) by_pair;
  for e = 0 to m - 1 do
    if reverse.(e) < 0 then begin
      let rkey = (link_dst.(e) * n) + link_src.(e) in
      match Hashtbl.find_opt by_pair rkey with
      | Some (r :: rest) ->
        reverse.(e) <- r;
        reverse.(r) <- e;
        Hashtbl.replace by_pair rkey rest;
        let key = (link_src.(e) * n) + link_dst.(e) in
        (match Hashtbl.find_opt by_pair key with
        | Some q -> Hashtbl.replace by_pair key (List.filter (fun x -> x <> e) q)
        | None -> ())
      | Some [] | None -> ()
    end
  done;
  let name_index = Hashtbl.create n in
  Array.iteri (fun i nm -> Hashtbl.replace name_index nm i) node_names;
  {
    node_names;
    name_index;
    link_src;
    link_dst;
    link_capacity;
    link_delay;
    out_links;
    in_links;
    reverse;
    pair_index;
  }

let num_nodes t = Array.length t.node_names
let num_links t = Array.length t.link_src
let node_name t v = t.node_names.(v)
let node_id t name = Hashtbl.find t.name_index name
let src t e = t.link_src.(e)
let dst t e = t.link_dst.(e)
let capacity t e = t.link_capacity.(e)
let delay t e = t.link_delay.(e)
let out_links t v = t.out_links.(v)
let in_links t v = t.in_links.(v)

let find_link t a b = Hashtbl.find_opt t.pair_index ((a * num_nodes t) + b)

let reverse_link t e =
  let r = t.reverse.(e) in
  if r < 0 then None else Some r

let physical_rep t e =
  let r = t.reverse.(e) in
  if r >= 0 && r < e then r else e

type link_set = bool array

let no_failures t = Array.make (num_links t) false

let fail_links t links =
  let s = no_failures t in
  List.iter
    (fun e ->
      if e < 0 || e >= num_links t then invalid_arg "Graph.fail_links: bad link id";
      s.(e) <- true)
    links;
  s

let fail_bidir t links =
  let s = fail_links t links in
  List.iter
    (fun e -> match reverse_link t e with Some r -> s.(r) <- true | None -> ())
    links;
  s

let failed_list s =
  let acc = ref [] in
  for e = Array.length s - 1 downto 0 do
    if s.(e) then acc := e :: !acc
  done;
  !acc

let reachable t ?failed a =
  let failed = match failed with Some f -> f | None -> no_failures t in
  let seen = Array.make (num_nodes t) false in
  let stack = ref [ a ] in
  seen.(a) <- true;
  let rec walk () =
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      Array.iter
        (fun e ->
          if not failed.(e) then begin
            let w = dst t e in
            if not seen.(w) then begin
              seen.(w) <- true;
              stack := w :: !stack
            end
          end)
        t.out_links.(v);
      walk ()
  in
  walk ();
  seen

let strongly_connected t ?failed () =
  let n = num_nodes t in
  let ok = ref true in
  let v = ref 0 in
  while !ok && !v < n do
    let seen = reachable t ?failed !v in
    if Array.exists not seen then ok := false;
    incr v
  done;
  !ok

let partitions_pair t failed a b = not (reachable t ~failed a).(b)

let total_capacity t = Array.fold_left ( +. ) 0.0 t.link_capacity

let pp ppf t =
  Format.fprintf ppf "@[<v>graph: %d nodes, %d directed links@," (num_nodes t)
    (num_links t);
  for e = 0 to num_links t - 1 do
    Format.fprintf ppf "  %s -> %s  cap=%g delay=%gms@," (node_name t (src t e))
      (node_name t (dst t e)) (capacity t e) (delay t e)
  done;
  Format.fprintf ppf "@]"
