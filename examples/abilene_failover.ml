(* The paper's prototype experiment in miniature (Section 5.3): protect the
   real Abilene backbone, fail Houston-KansasCity, Chicago-Indianapolis and
   Sunnyvale-Denver in sequence, and watch both the flow-level MLU and the
   MPLS-ff packet forwarding plane (label stacking included).

   Run with:  dune exec examples/abilene_failover.exe *)

module G = R3_net.Graph
module Traffic = R3_net.Traffic
module Offline = R3_core.Offline
module Reconfig = R3_core.Reconfig
module S = R3_core.Structured

let () =
  let g = R3_net.Topology.abilene () in
  let rng = R3_util.Prng.create 42 in
  let tm = Traffic.gravity rng g ~load_factor:0.3 () in
  let pairs, _ = Traffic.commodities tm in
  let base = R3_net.Ospf.routing g ~weights:(R3_net.Ospf.unit_weights g) ~pairs () in

  (* Protect every physical (bidirectional) link: one SRLG per pair. *)
  let groups =
    {
      S.srlgs = S.physical_srlgs g;
      mlgs = [];
      k = 1;
    }
  in
  let cfg =
    { (Offline.default_config ~f:1) with solve_method = Offline.Constraint_gen }
  in
  match S.compute cfg g tm groups (Offline.Fixed base) with
  | Error msg -> Format.printf "offline failed: %s@." msg
  | Ok plan ->
    Format.printf "offline MLU over d + X (any single physical failure): %.3f@.@."
      plan.Offline.mlu;
    let id n = G.node_id g n in
    let failures =
      [
        ("Houston-KansasCity", Option.get (G.find_link g (id "Houston") (id "KansasCity")));
        ("Chicago-Indianapolis", Option.get (G.find_link g (id "Chicago") (id "Indianapolis")));
        ("Sunnyvale-Denver", Option.get (G.find_link g (id "Sunnyvale") (id "Denver")));
      ]
    in
    let st = ref (Reconfig.of_plan plan) in
    Format.printf "%-24s %8s %12s@." "failure" "MLU" "delivered";
    Format.printf "%-24s %8.3f %11.1f%%@." "(none)" (Reconfig.mlu !st)
      (100.0 *. Reconfig.delivered_fraction !st);
    List.iter
      (fun (name, link) ->
        st := Reconfig.fail !st (R3_core.Scenario.of_links g [ link ]);
        Format.printf "%-24s %8.3f %11.1f%%@." name (Reconfig.mlu !st)
          (100.0 *. Reconfig.delivered_fraction !st))
      failures;

    (* Forwarding plane: after all three failures, packets still reach
       every destination via protection labels. *)
    let failed = (!st).Reconfig.failed in
    let fib = R3_mplsff.Fib.of_protection g (!st).Reconfig.protection in
    let net = R3_mplsff.Forward.make g ~base:plan.Offline.base ~fib ~failed () in
    let rng = R3_util.Prng.create 7 in
    let delivered = ref 0 and labeled = ref 0 and total = ref 0 and max_stack = ref 0 in
    Array.iter
      (fun (a, b) ->
        for _ = 1 to 3 do
          incr total;
          let flow =
            {
              R3_mplsff.Flow_hash.src_ip = R3_util.Prng.bits rng land 0xFFFFFF;
              dst_ip = R3_util.Prng.bits rng land 0xFFFFFF;
              src_port = R3_util.Prng.int rng 65536;
              dst_port = R3_util.Prng.int rng 65536;
            }
          in
          match R3_mplsff.Forward.forward net ~flow ~src:a ~dst:b with
          | Ok t ->
            incr delivered;
            if t.R3_mplsff.Forward.max_stack_depth > 0 then incr labeled;
            max_stack := Int.max !max_stack t.R3_mplsff.Forward.max_stack_depth
          | Error _ -> ()
        done)
      pairs;
    Format.printf "@.MPLS-ff forwarding after 3 failures: %d/%d packets delivered, %d used protection labels (max stack %d)@."
      !delivered !total !labeled !max_stack;
    let report = R3_mplsff.Storage.of_protection g plan.Offline.protection in
    Format.printf "router storage: %a@." R3_mplsff.Storage.pp report
