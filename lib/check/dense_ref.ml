module G = R3_net.Graph
module Routing = R3_net.Routing
module Reconfig = R3_core.Reconfig

type t = {
  base : float array array;
  protection : float array array;
  failed : G.link_set;
}

let pristine (st : Reconfig.state) =
  {
    base =
      Routing.to_dense_matrix
        (Reconfig.base { st with Reconfig.base = st.Reconfig.pristine_base });
    protection = Routing.to_dense_matrix st.Reconfig.pristine_protection;
    failed = Array.make (G.num_links st.Reconfig.graph) false;
  }

let detour p e =
  let row = p.(e) in
  let m = Array.length row in
  let self = row.(e) in
  if self >= 1.0 -. Routing.rescale_tol then Array.make m 0.0
  else begin
    let scale = 1.0 /. (1.0 -. self) in
    (* [+. 0.0]: a product that underflows to [-0.0] is a zero *)
    Array.init m (fun l -> if l = e then 0.0 else (row.(l) *. scale) +. 0.0)
  end

let fold_row row ~e ~xi =
  let row' = Array.copy row in
  let on_e = row.(e) in
  if on_e > 0.0 then
    Array.iteri
      (fun l x -> if x <> 0.0 then row'.(l) <- row'.(l) +. (on_e *. x))
      xi;
  row'.(e) <- 0.0;
  row'

let fail t e =
  if t.failed.(e) then t
  else begin
    let xi = detour t.protection e in
    let failed = Array.copy t.failed in
    failed.(e) <- true;
    {
      base = Array.map (fun row -> fold_row row ~e ~xi) t.base;
      protection =
        Array.mapi
          (fun l row -> if l = e then Array.copy xi else fold_row row ~e ~xi)
          t.protection;
      failed;
    }
  end

let fold t links = List.fold_left fail t links

let canonical g failed =
  let key e =
    let rep = match G.reverse_link g e with Some r when r < e -> r | _ -> e in
    (2 * rep) + if e = rep then 0 else 1
  in
  List.filter (fun e -> failed.(e)) (List.init (Array.length failed) Fun.id)
  |> List.sort (fun a b -> Int.compare (key a) (key b))

let of_failed (st : Reconfig.state) failed =
  fold (pristine st) (canonical st.Reconfig.graph failed)

let of_state (st : Reconfig.state) = of_failed st st.Reconfig.failed

let first_difference what got want =
  let rows = Array.length want in
  if Array.length got <> rows then
    Some (Printf.sprintf "%s: %d rows, reference has %d" what (Array.length got) rows)
  else begin
    let found = ref None in
    Array.iteri
      (fun k row ->
        Array.iteri
          (fun e x ->
            if
              !found = None
              && Int64.bits_of_float x <> Int64.bits_of_float want.(k).(e)
            then
              found :=
                Some
                  (Printf.sprintf "%s row %d link %d: %h, reference %h" what k e
                     x want.(k).(e)))
          row)
      got;
    !found
  end

let mismatch (st : Reconfig.state) t =
  if st.Reconfig.failed <> t.failed then Some "the failed link sets differ"
  else
    match
      first_difference "protection"
        (Routing.to_dense_matrix st.Reconfig.protection)
        t.protection
    with
    | Some _ as d -> d
    | None ->
      first_difference "base" (Routing.to_dense_matrix (Reconfig.base st)) t.base
