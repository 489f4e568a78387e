type class_spec = { demand : R3_net.Traffic.t; f : int }

type plan = { plan : Offline.plan; class_mlus : float array }

(* Class [spec]'s envelope: [X_{f_i}], or [f_i] concurrent SRLG events. *)
let envelope ?srlgs spec =
  match srlgs with
  | None -> Virtual_demand.Links spec.f
  | Some srlgs -> Virtual_demand.Groups { srlgs; mlgs = []; k = spec.f }

let audit_class_mlus ?srlgs ~classes (plan : Offline.plan) =
  let g = plan.graph in
  classes
  |> List.map (fun spec ->
         let demands = Array.map (fun (a, b) -> spec.demand.(a).(b)) plan.pairs in
         Virtual_demand.worst_mlu g (envelope ?srlgs spec)
           ~base_loads:(R3_net.Routing.loads g ~demands plan.base)
           ~protection:plan.protection)
  |> Array.of_list

let compute cfg g ?srlgs ~classes base_spec =
  if classes = [] then invalid_arg "Priority.compute: no classes";
  List.iter
    (fun c -> if c.f < 0 then invalid_arg "Priority.compute: negative budget")
    classes;
  Offline.compute_classes cfg g
    (List.map (fun c -> (c.demand, envelope ?srlgs c)) classes)
    base_spec
  |> Result.map (fun plan -> { plan; class_mlus = audit_class_mlus ?srlgs ~classes plan })
