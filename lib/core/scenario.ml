(* Canonical failure scenarios. A scenario is a set of physical links; the
   canonical form is the strictly ascending array of physical representatives
   (the lower id of each bidirectional pair), and the directed expansion is
   derived once at construction. *)

module G = R3_net.Graph

type t = {
  phys : int array;  (* canonical physical representatives, ascending *)
  links : G.link list;  (* directed expansion, canonical order *)
}

let expand_phys g phys =
  Array.to_list phys
  |> List.concat_map (fun e ->
         match G.reverse_link g e with Some r -> [ e; r ] | None -> [ e ])

(* Fast path for enumeration: [phys] is already canonical and ascending. *)
let of_sorted_phys g phys = { phys; links = expand_phys g phys }

let of_links g links =
  let canon = List.sort_uniq Int.compare (List.map (G.physical_rep g) links) in
  of_sorted_phys g (Array.of_list canon)

let of_physical = of_links

let links t = t.links
let physical t = Array.to_list t.phys
let size t = Array.length t.phys
let is_empty t = Array.length t.phys = 0

let compare a b =
  let na = Array.length a.phys and nb = Array.length b.phys in
  let rec go i =
    if i = na && i = nb then 0
    else if i = na then -1
    else if i = nb then 1
    else
      let c = Int.compare a.phys.(i) b.phys.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let equal a b = compare a b = 0

(* [Hashtbl.hash] stops after ~10 meaningful values, so scenarios sharing
   their first 10 physical representatives all collide and [Tbl] degrades
   to a linked list under large failure budgets. Mix every element instead
   (boost-style hash_combine); [land max_int] keeps the result
   non-negative as Hashtbl requires. *)
let hash t =
  let h =
    Array.fold_left
      (fun h x -> h lxor (x + 0x9e3779b9 + (h lsl 6) + (h lsr 2)))
      (Array.length t.phys) t.phys
  in
  h land max_int

let key t =
  String.concat "+" (Array.to_list (Array.map string_of_int t.phys))

let describe g t =
  if is_empty t then "(no failures)"
  else
    String.concat " + "
      (Array.to_list
         (Array.map
            (fun e ->
              Printf.sprintf "%s-%s" (G.node_name g (G.src g e))
                (G.node_name g (G.dst g e)))
            t.phys))

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
