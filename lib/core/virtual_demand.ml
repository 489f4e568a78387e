let member g ~f x =
  let m = R3_net.Graph.num_links g in
  if Array.length x <> m then invalid_arg "Virtual_demand.member: bad length";
  let budget = ref 0.0 in
  let ok = ref true in
  for e = 0 to m - 1 do
    let u = x.(e) /. R3_net.Graph.capacity g e in
    if u < -1e-9 || u > 1.0 +. 1e-9 then ok := false;
    budget := !budget +. u
  done;
  !ok && !budget <= float_of_int f +. 1e-9

let extreme_points ?(limit = 200_000) g ~f =
  let m = R3_net.Graph.num_links g in
  (* Count subsets of size <= f before materializing. *)
  let count = ref 0 in
  let rec binom n k = if k = 0 || k = n then 1 else binom (n - 1) (k - 1) + binom (n - 1) k in
  for k = 0 to Int.min f m do
    count := !count + binom m k
  done;
  if !count > limit then
    invalid_arg
      (Printf.sprintf "Virtual_demand.extreme_points: %d points exceeds limit %d" !count limit);
  let acc = ref [] in
  let x = Array.make m 0.0 in
  let rec enumerate start remaining =
    acc := Array.copy x :: !acc;
    if remaining > 0 then
      for e = start to m - 1 do
        x.(e) <- R3_net.Graph.capacity g e;
        enumerate (e + 1) (remaining - 1);
        x.(e) <- 0.0
      done
  in
  enumerate 0 f;
  !acc

let weight_columns g p =
  let m = R3_net.Graph.num_links g in
  let cols = Array.init m (fun _ -> Array.make m 0.0) in
  for l = 0 to m - 1 do
    let c = R3_net.Graph.capacity g l in
    R3_net.Routing.iter_row p l (fun e x -> cols.(e).(l) <- c *. x)
  done;
  cols

let worst_virtual_load ~f weights =
  let sorted = Array.copy weights in
  Array.sort (fun a b -> Float.compare b a) sorted;
  let acc = ref 0.0 in
  for i = 0 to Int.min f (Array.length sorted) - 1 do
    if sorted.(i) > 0.0 then acc := !acc +. sorted.(i)
  done;
  !acc

let worst_virtual_load_set ~f weights =
  let idx = Array.init (Array.length weights) (fun i -> i) in
  Array.sort (fun a b -> Float.compare weights.(b) weights.(a)) idx;
  let acc = ref 0.0 and links = ref [] in
  for i = 0 to Int.min f (Array.length weights) - 1 do
    if weights.(idx.(i)) > 0.0 then begin
      acc := !acc +. weights.(idx.(i));
      links := idx.(i) :: !links
    end
  done;
  (!acc, List.rev !links)
