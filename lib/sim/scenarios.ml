module G = R3_net.Graph

let physical_links g =
  List.init (G.num_links g) Fun.id
  |> List.filter (fun e -> G.physical_rep g e = e)
  |> Array.of_list

let enumerate g ~k =
  if k < 0 then invalid_arg "Scenarios.enumerate: k < 0";
  let phys = physical_links g in
  let n = Array.length phys in
  let acc = ref [] in
  let rec choose start chosen remaining =
    if remaining = 0 then
      acc := Scenario.of_links g (List.rev chosen) :: !acc
    else
      for i = start to n - remaining do
        choose (i + 1) (phys.(i) :: chosen) (remaining - 1)
      done
  in
  choose 0 [] k;
  List.rev !acc

let shortfall_counter = R3_util.Metrics.counter "sim.scenarios.sample_shortfall"

let sample g ~k ~count ~seed =
  if k < 0 then invalid_arg "Scenarios.sample: k < 0";
  let phys = physical_links g in
  let n = Array.length phys in
  let total = R3_util.Stats.binom n k in
  if total <= float_of_int count *. 1.5 && total <= 50_000.0 then begin
    (* Space is small: enumerate and subsample deterministically. *)
    let all = Array.of_list (enumerate g ~k) in
    let rng = R3_util.Prng.create seed in
    if Array.length all <= count then Array.to_list all
    else Array.to_list (R3_util.Prng.sample rng count all)
  end
  else begin
    let rng = R3_util.Prng.create seed in
    let seen = Hashtbl.create count in
    let out = ref [] in
    let guard = ref 0 in
    while Hashtbl.length seen < count && !guard < count * 100 do
      incr guard;
      let picks = R3_util.Prng.sample rng k phys in
      let key = List.sort Int.compare (Array.to_list picks) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        out := Scenario.of_links g key :: !out
      end
    done;
    (* The guard bounds rejection sampling on pathological spaces (total
       barely above the enumeration threshold). A shortfall is part of the
       return contract, but never a silent one: it is recorded in the
       metrics registry for the caller's --metrics export. *)
    let found = Hashtbl.length seen in
    if found < count then
      R3_util.Metrics.add shortfall_counter (count - found);
    List.rev !out
  end

let of_groups g groups = List.map (Scenario.of_links g) groups

let connected g scenarios =
  List.filter
    (fun s ->
      G.strongly_connected g ~failed:(G.fail_links g (Scenario.links s)) ())
    scenarios
