module G = R3_net.Graph
module J = R3_util.Json

type event = { at_ms : float; a : int; b : int; fail : bool }

type t = {
  oracle : string;
  seed : int;
  sub_seed : int;
  nodes : int;
  links : (int * int * float * float) array;
  demands : (int * int * float) array;
  f : int;
  k : int;
  count : int;
  events : event list;
}

let graph t =
  G.create
    ~node_names:(Array.init t.nodes (Printf.sprintf "n%d"))
    ~links:t.links

let traffic t =
  let tm = R3_net.Traffic.zeros t.nodes in
  Array.iter
    (fun (a, b, d) -> tm.(a).(b) <- tm.(a).(b) +. d)
    t.demands;
  tm

let commodities t = R3_net.Traffic.commodities (traffic t)

let schedule t g =
  List.filter_map
    (fun ev ->
      match G.find_link g ev.a ev.b with
      | None -> None
      | Some e ->
        Some
          {
            R3_sim.Online.at_ms = ev.at_ms;
            link = G.physical_rep g e;
            kind = (if ev.fail then R3_sim.Online.Fail else R3_sim.Online.Recover);
          })
    t.events
  |> List.stable_sort (fun x y ->
         Float.compare x.R3_sim.Online.at_ms y.R3_sim.Online.at_ms)

let valid t =
  t.nodes >= 2 && t.f >= 1 && t.k >= 1 && t.count >= 1
  && Array.length t.links > 0
  &&
  match graph t with
  | exception Invalid_argument _ -> false
  | g ->
    G.strongly_connected g ()
    && Array.exists
         (fun (a, b, d) ->
           a <> b && a >= 0 && a < t.nodes && b >= 0 && b < t.nodes && d > 0.0)
         t.demands

let to_json t =
  J.Obj
    [
      ("format", J.Int 1);
      ("oracle", J.String t.oracle);
      ("seed", J.Int t.seed);
      ("sub_seed", J.Int t.sub_seed);
      ("nodes", J.Int t.nodes);
      ( "links",
        J.List
          (Array.to_list t.links
          |> List.map (fun (a, b, c, d) ->
                 J.List [ J.Int a; J.Int b; J.Float c; J.Float d ])) );
      ( "demands",
        J.List
          (Array.to_list t.demands
          |> List.map (fun (a, b, d) -> J.List [ J.Int a; J.Int b; J.Float d ]))
      );
      ("f", J.Int t.f);
      ("k", J.Int t.k);
      ("count", J.Int t.count);
      ( "events",
        J.List
          (List.map
             (fun ev ->
               J.List
                 [ J.Float ev.at_ms; J.Int ev.a; J.Int ev.b; J.Bool ev.fail ])
             t.events) );
    ]

let digest t =
  String.sub (Digest.to_hex (Digest.string (J.to_string (to_json t)))) 0 8

(* Tolerant numeric readers: the JSON layer parses "3" as Int and "3.5"
   as Float; corpus files may legitimately contain either for capacities
   and timestamps. *)
let num = function
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | _ -> failwith "expected number"

let int_ = function J.Int i -> i | _ -> failwith "expected int"

let field obj name =
  match List.assoc_opt name obj with
  | Some v -> v
  | None -> failwith ("missing field " ^ name)

let of_json doc =
  match doc with
  | J.Obj obj -> (
    try
      let links =
        match field obj "links" with
        | J.List l ->
          Array.of_list
            (List.map
               (function
                 | J.List [ a; b; c; d ] -> (int_ a, int_ b, num c, num d)
                 | _ -> failwith "malformed link entry")
               l)
        | _ -> failwith "links must be a list"
      in
      let demands =
        match field obj "demands" with
        | J.List l ->
          Array.of_list
            (List.map
               (function
                 | J.List [ a; b; d ] -> (int_ a, int_ b, num d)
                 | _ -> failwith "malformed demand entry")
               l)
        | _ -> failwith "demands must be a list"
      in
      let events =
        match field obj "events" with
        | J.List l ->
          List.map
            (function
              | J.List [ at; a; b; J.Bool fail ] ->
                { at_ms = num at; a = int_ a; b = int_ b; fail }
              | _ -> failwith "malformed event entry")
            l
        | _ -> failwith "events must be a list"
      in
      let oracle =
        match field obj "oracle" with
        | J.String s -> s
        | _ -> failwith "oracle must be a string"
      in
      Ok
        {
          oracle;
          seed = int_ (field obj "seed");
          sub_seed = int_ (field obj "sub_seed");
          nodes = int_ (field obj "nodes");
          links;
          demands;
          f = int_ (field obj "f");
          k = int_ (field obj "k");
          count = int_ (field obj "count");
          events;
        }
    with Failure msg -> Error ("case: " ^ msg))
  | _ -> Error "case: expected a JSON object"

let save path t = J.write_file path (to_json t)

let load path =
  match J.read_file path with
  | exception Sys_error msg -> Error msg
  | exception J.Parse_error msg -> Error (path ^ ": " ^ msg)
  | doc -> (
    match of_json doc with
    | Error msg -> Error (path ^ ": " ^ msg)
    | Ok t when not (valid t) -> Error (path ^ ": case fails validity checks")
    | Ok t -> Ok t)
