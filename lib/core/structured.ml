module G = R3_net.Graph

type groups = Virtual_demand.groups = {
  srlgs : G.link list list;
  mlgs : G.link list list;
  k : int;
}

let physical_srlgs g =
  List.init (G.num_links g) Fun.id
  |> List.filter_map (fun e ->
         match G.reverse_link g e with
         | Some r -> if e < r then Some [ e; r ] else None
         | None -> Some [ e ])

let worst_structured_load = Virtual_demand.worst_group_load

let compute cfg g tm groups base_spec =
  Offline.compute_classes ~spread:true cfg g [ (tm, Virtual_demand.Groups groups) ] base_spec

let audit_mlu (plan : Offline.plan) groups =
  let g = plan.graph in
  Virtual_demand.worst_mlu g (Groups groups)
    ~base_loads:(R3_net.Routing.loads g ~demands:plan.demands plan.base)
    ~protection:plan.protection
