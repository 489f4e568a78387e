module G = R3_net.Graph

let evaluate g ~failed ~weights ~pairs ~demands () =
  let m = G.num_links g in
  let loads = Array.make m 0.0 in
  let total = Array.fold_left ( +. ) 0.0 demands in
  let delivered = ref 0.0 in
  (* Next-hop tables keyed by (destination, known failure set): packets
     sharing knowledge share routes. [Spf] only reads [known] and keeps
     no reference to it, so it is passed uncopied. *)
  let cache = Hashtbl.create 64 in
  let next_hops b known known_list =
    let key = (b, known_list) in
    match Hashtbl.find_opt cache key with
    | Some t -> t
    | None ->
      let _, t = R3_net.Spf.in_tree g ~failed:known ~weights ~dst:b in
      Hashtbl.replace cache key t;
      t
  in
  Array.iteri
    (fun kq (a, b) ->
      let d = demands.(kq) in
      if d > 0.0 then begin
        (* One representative packet per OD pair; its (deterministic) path
           carries the whole demand. *)
        let known = Array.make m false in
        let known_list = ref [] in
        let record e =
          let mark l =
            if not known.(l) then begin
              known.(l) <- true;
              known_list := List.sort Int.compare (l :: !known_list)
            end
          in
          mark e;
          match G.reverse_link g e with Some r -> mark r | None -> ()
        in
        let max_steps = 4 * (G.num_nodes g + (2 * m)) in
        let rec walk v steps path =
          if v = b then Some path
          else if steps > max_steps then None
          else begin
            let e = (next_hops b known !known_list).(v) in
            if e < 0 then None
            else if failed.(e) then begin
              (* FCP: record the failure and reroute from here. *)
              record e;
              walk v (steps + 1) path
            end
            else walk (G.dst g e) (steps + 1) (e :: path)
          end
        in
        match walk a 0 [] with
        | Some path ->
          List.iter (fun e -> loads.(e) <- loads.(e) +. d) path;
          delivered := !delivered +. d
        | None -> ()
      end)
    pairs;
  let delivered = if total <= 0.0 then 1.0 else !delivered /. total in
  { Types.loads; delivered }
