module G = R3_net.Graph

let evaluate g ~failed ~weights ~pairs ~demands () =
  let m = G.num_links g in
  let loads = Array.make m 0.0 in
  let total = Array.fold_left ( +. ) 0.0 demands in
  let delivered = ref 0.0 in
  (* Distance tables keyed by (destination, known failure set): packets
     sharing knowledge share routes. [Spf] only reads [known] and keeps
     no reference to it, so it is passed uncopied. *)
  let cache = Hashtbl.create 64 in
  let dist_to b known known_list =
    let key = (b, known_list) in
    match Hashtbl.find_opt cache key with
    | Some d -> d
    | None ->
      let d = R3_net.Spf.distances_to g ~failed:known ~weights ~dst:b () in
      Hashtbl.replace cache key d;
      d
  in
  let tol = 1e-9 in
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
            let dist = dist_to b known !known_list in
            if dist.(v) = infinity then None
            else begin
              (* Lowest-id outgoing link on the shortest-path DAG. *)
              let next = ref None in
              Array.iter
                (fun e ->
                  if !next = None && not known.(e) then begin
                    let w = G.dst g e in
                    if
                      dist.(w) < infinity
                      && Float.abs (weights.(e) +. dist.(w) -. dist.(v))
                         <= tol *. (1.0 +. dist.(v))
                    then next := Some e
                  end)
                (G.out_links g v);
              match !next with
              | None -> None
              | Some e ->
                if failed.(e) then begin
                  (* FCP: record the failure and reroute from here. *)
                  record e;
                  walk v (steps + 1) path
                end
                else walk (G.dst g e) (steps + 1) (e :: path)
            end
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
