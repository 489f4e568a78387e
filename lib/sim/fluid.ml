module G = R3_net.Graph
module Routing = R3_net.Routing

type scheme =
  | R3_plan of R3_core.Offline.plan
  | Ospf of { weights : float array; reconvergence_s : float }

type event = { at_s : float; fail : G.link }

type config = { duration_s : float; dt_s : float; burstiness : float; seed : int }

let default_config = { duration_s = 300.0; dt_s = 1.0; burstiness = 0.15; seed = 2024 }

type step = {
  time_s : float;
  loads : float array;
  utilization : float array;
  delivered : float array;
  offered : float array;
  rtt_ms : float array;
}

type run = { steps : step list; pairs : (G.node * G.node) array }

(* Queueing-aware per-link one-way delay: propagation plus a small factor
   that blows up near saturation. *)
let link_delay g e ~util =
  let rho = Float.min util 0.98 in
  G.delay g e *. (1.0 +. (0.25 *. rho /. (1.0 -. rho)))

let run ?(config = default_config) g ~pairs ~demands ~scheme ~events () =
  let m = G.num_links g in
  let nk = Array.length pairs in
  let rng = R3_util.Prng.create config.seed in
  (* Deterministic per-commodity burst phases. *)
  let phase = Array.init nk (fun _ -> R3_util.Prng.float rng (2.0 *. Float.pi)) in
  let freq = Array.init nk (fun _ -> 0.05 +. R3_util.Prng.float rng 0.2) in
  (* Incremental routing state carried across timesteps. The old code
     rebuilt [Reconfig.make] from the pristine plan (and, on the OSPF arm,
     re-ran a full SPF routing) at every dt and re-folded every fallen
     link one singleton at a time — quadratic in the event count and
     linear in the run length even with no topology change. Instead the
     chronologically sorted events are consumed by advance-only cursors:
     the R3 arm folds newly fallen links as one canonical {!Scenario.t}
     delta on the copy-on-write substrate (Theorem 3 makes that
     bit-identical to the from-scratch rebuild), and the OSPF arm caches
     the SPF routing keyed by the converged prefix, re-solving only when
     that prefix grows. *)
  let ev =
    Array.of_list
      (List.stable_sort (fun a b -> Float.compare a.at_s b.at_s) events)
  in
  let nev = Array.length ev in
  let r3_st =
    match scheme with
    | R3_plan plan ->
      Some
        (ref
           (R3_core.Reconfig.make g ~pairs ~demands
              ~base:plan.R3_core.Offline.base
              ~protection:plan.R3_core.Offline.protection))
    | Ospf _ -> None
  in
  let r3_cursor = ref 0 in
  let ospf_fall = ref 0 and ospf_conv = ref 0 in
  let ospf_basis = ref None in
  let routing_at time =
    match scheme with
    | R3_plan _ ->
      (* R3 reacts within a detection interval (sub-second); model as
         immediate at our timestep resolution. *)
      let st = Option.get r3_st in
      let fresh = ref [] in
      while !r3_cursor < nev && ev.(!r3_cursor).at_s <= time do
        fresh := ev.(!r3_cursor).fail :: !fresh;
        incr r3_cursor
      done;
      if !fresh <> [] then
        st := R3_core.Reconfig.fail !st (Scenario.of_links g !fresh);
      (R3_core.Reconfig.base !st, (!st).R3_core.Reconfig.failed)
    | Ospf { weights; reconvergence_s } ->
      (* OSPF only sees failures older than its reconvergence delay;
         younger ones blackhole the traffic crossing them (we zero those
         links' flow, modelling drops at the failure point). *)
      while !ospf_fall < nev && ev.(!ospf_fall).at_s <= time do
        incr ospf_fall
      done;
      while
        !ospf_conv < nev && ev.(!ospf_conv).at_s +. reconvergence_s <= time
      do
        incr ospf_conv
      done;
      let prefix n = List.init n (fun i -> ev.(i).fail) in
      let basis =
        match !ospf_basis with
        | Some (n, r) when n = !ospf_conv -> r
        | _ ->
          let r =
            R3_net.Ospf.routing g
              ~failed:(G.fail_bidir g (prefix !ospf_conv))
              ~weights ~pairs ()
          in
          ospf_basis := Some (!ospf_conv, r);
          r
      in
      let failed_now = G.fail_bidir g (prefix !ospf_fall) in
      if !ospf_fall = !ospf_conv then (basis, failed_now)
      else begin
        (* Zero the not-yet-converged links on a copy-on-write copy so
           the cached converged basis stays pristine for later steps. *)
        let r = Routing.copy basis in
        for e = 0 to m - 1 do
          if failed_now.(e) then
            for k = 0 to Routing.num_commodities r - 1 do
              if Routing.get r k e > 0.0 then Routing.set r k e 0.0
            done
        done;
        (r, failed_now)
      end
  in
  let steps = ref [] in
  let nsteps = int_of_float (config.duration_s /. config.dt_s) in
  for i = 0 to nsteps - 1 do
    let time = float_of_int i *. config.dt_s in
    let offered =
      Array.init nk (fun k ->
          demands.(k)
          *. (1.0 +. (config.burstiness *. sin ((freq.(k) *. time) +. phase.(k)))))
    in
    let routing, failed = routing_at time in
    let loads = Routing.loads g ~demands:offered routing in
    let utilization =
      Array.init m (fun e ->
          if failed.(e) then 0.0 else loads.(e) /. G.capacity g e)
    in
    (* Per-link drop fraction; first-order per-commodity loss. *)
    let drop = Array.init m (fun e -> Float.max 0.0 (1.0 -. (1.0 /. Float.max 1.0 utilization.(e)))) in
    let delivered =
      Array.init nk (fun k ->
          let routed = Routing.delivered g routing k in
          let lost =
            Routing.fold_row routing k ~init:0.0 ~f:(fun acc e x ->
                if x > 0.0 then acc +. (x *. drop.(e)) else acc)
          in
          offered.(k) *. Float.max 0.0 (Float.min routed (routed -. lost)))
    in
    let rtt_ms =
      Array.init nk (fun k ->
          let acc =
            Routing.fold_row routing k ~init:0.0 ~f:(fun acc e x ->
                if x > 0.0 then
                  acc +. (x *. link_delay g e ~util:utilization.(e))
                else acc)
          in
          2.0 *. acc)
    in
    steps := { time_s = time; loads; utilization; delivered; offered; rtt_ms } :: !steps
  done;
  { steps = List.rev !steps; pairs }

(* Phase boundaries: start, each event, end. A phase's steady window is its
   last 40%. *)
let phase_windows run ~events =
  let times = List.map (fun s -> s.time_s) run.steps in
  let t_end = List.fold_left Float.max 0.0 times +. 1.0 in
  let bounds = 0.0 :: List.map (fun ev -> ev.at_s) events @ [ t_end ] in
  let rec windows = function
    | a :: (b :: _ as rest) -> (a +. (0.6 *. (b -. a)), b) :: windows rest
    | _ -> []
  in
  windows bounds

let steps_in run (a, b) = List.filter (fun s -> s.time_s >= a && s.time_s < b) run.steps

let mean_over steps extract n =
  let acc = Array.make n 0.0 in
  let count = List.length steps in
  if count = 0 then acc
  else begin
    List.iter
      (fun s ->
        let v = extract s in
        for i = 0 to n - 1 do
          acc.(i) <- acc.(i) +. v.(i)
        done)
      steps;
    Array.map (fun x -> x /. float_of_int count) acc
  end

let throughput_by_phase run ~events =
  let nk = Array.length run.pairs in
  phase_windows run ~events
  |> List.map (fun w -> mean_over (steps_in run w) (fun s -> s.delivered) nk)

let utilization_by_phase run ~events =
  match run.steps with
  | [] -> []
  | s :: _ ->
    let m = Array.length s.utilization in
    phase_windows run ~events
    |> List.map (fun w -> mean_over (steps_in run w) (fun s -> s.utilization) m)

let egress_loss_by_phase g run ~events =
  let nk = Array.length run.pairs in
  let n = G.num_nodes g in
  phase_windows run ~events
  |> List.map (fun w ->
         let steps = steps_in run w in
         let offered = mean_over steps (fun s -> s.offered) nk in
         let delivered = mean_over steps (fun s -> s.delivered) nk in
         let lost_by_egress = Array.make n 0.0 and off_by_egress = Array.make n 0.0 in
         Array.iteri
           (fun k (_, b) ->
             lost_by_egress.(b) <-
               lost_by_egress.(b) +. Float.max 0.0 (offered.(k) -. delivered.(k));
             off_by_egress.(b) <- off_by_egress.(b) +. offered.(k))
           run.pairs;
         Array.init n (fun v ->
             if off_by_egress.(v) <= 0.0 then 0.0 else lost_by_egress.(v) /. off_by_egress.(v)))

let rtt_series run ~src ~dst =
  let k = ref (-1) in
  Array.iteri (fun i (a, b) -> if a = src && b = dst then k := i) run.pairs;
  if !k < 0 then []
  else List.map (fun s -> (s.time_s, s.rtt_ms.(!k))) run.steps
