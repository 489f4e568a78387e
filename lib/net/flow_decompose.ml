type path = { weight : float; links : Graph.link list }

let eps = 1e-9

(* Remove circulation: repeatedly find a cycle in the positive-flow
   subgraph (ignoring source emission) and peel its bottleneck. Returns the
   total flow removed. A routing produced by an LP with a loop penalty has
   none, but defensive callers should not rely on that. *)
let strip_cycles g frac =
  let removed = ref 0.0 in
  let n = Graph.num_nodes g in
  let rec find_cycle () =
    (* DFS over positive-flow links looking for a back edge. *)
    let state = Array.make n 0 (* 0 unvisited, 1 on stack, 2 done *) in
    let cycle = ref None in
    let rec dfs v stack =
      if !cycle = None then begin
        state.(v) <- 1;
        Array.iter
          (fun e ->
            if !cycle = None && frac.(e) > eps then begin
              let w = Graph.dst g e in
              if state.(w) = 1 then begin
                (* back edge: extract the cycle from the stack *)
                let rec take acc = function
                  | [] -> acc
                  | x :: _ when Graph.src g x = w -> x :: acc
                  | x :: tl -> take (x :: acc) tl
                in
                cycle := Some (take [] (e :: stack))
              end
              else if state.(w) = 0 then dfs w (e :: stack)
            end)
          (Graph.out_links g v);
        if !cycle = None then state.(v) <- 2
      end
    in
    for v = 0 to n - 1 do
      if state.(v) = 0 && !cycle = None then dfs v []
    done;
    match !cycle with
    | None -> ()
    | Some links ->
      let bottleneck = List.fold_left (fun a e -> Float.min a frac.(e)) infinity links in
      List.iter (fun e -> frac.(e) <- Float.max 0.0 (frac.(e) -. bottleneck)) links;
      removed := !removed +. bottleneck;
      find_cycle ()
  in
  find_cycle ();
  !removed

let decompose g t k =
  let a, b = Routing.pair t k in
  let frac = Routing.row_dense t k in
  let circulation = strip_cycles g frac in
  let paths = ref [] in
  let guard = ref (Graph.num_links g + 4) in
  let rec peel () =
    decr guard;
    if !guard >= 0 then begin
      (* Trace a positive-flow path a -> b: DFS preferring the largest
         fraction first, backtracking past dead ends (a partially-dropped
         routing can strand flow at a failure point). The flow subgraph is
         acyclic after strip_cycles, so the search terminates. *)
      let rec trace v acc =
        if v = b then Some (List.rev acc)
        else begin
          let candidates =
            Array.to_list (Graph.out_links g v)
            |> List.filter (fun e -> frac.(e) > eps)
            |> List.sort (fun e1 e2 -> Float.compare frac.(e2) frac.(e1))
          in
          let rec try_each = function
            | [] -> None
            | e :: rest -> (
              match trace (Graph.dst g e) (e :: acc) with
              | Some _ as found -> found
              | None -> try_each rest)
          in
          try_each candidates
        end
      in
      match trace a [] with
      | None -> ()
      | Some links ->
        let weight = List.fold_left (fun acc e -> Float.min acc frac.(e)) infinity links in
        if weight > eps then begin
          List.iter (fun e -> frac.(e) <- frac.(e) -. weight) links;
          paths := { weight; links } :: !paths;
          peel ()
        end
    end
  in
  peel ();
  (List.rev !paths, circulation)

let recompose g paths =
  let frac = Array.make (Graph.num_links g) 0.0 in
  List.iter
    (fun { weight; links } -> List.iter (fun e -> frac.(e) <- frac.(e) +. weight) links)
    paths;
  frac

let total_paths g t =
  let acc = ref 0 in
  for k = 0 to Routing.num_commodities t - 1 do
    let paths, _ = decompose g t k in
    acc := !acc + List.length paths
  done;
  !acc

(* Paths compare equal when they traverse the same links; weights may be
   retuned without re-signalling, so churn counts link-sequence changes. *)
let path_churn g ~before ~after =
  if Routing.num_commodities before <> Routing.num_commodities after then
    invalid_arg "Flow_decompose.path_churn: commodity mismatch";
  let fresh = ref 0 and total = ref 0 in
  for k = 0 to Routing.num_commodities after - 1 do
    let old_paths, _ = decompose g before k in
    let new_paths, _ = decompose g after k in
    let old_set = List.map (fun p -> p.links) old_paths in
    List.iter
      (fun p ->
        incr total;
        if not (List.mem p.links old_set) then incr fresh)
      new_paths
  done;
  (!fresh, !total)
