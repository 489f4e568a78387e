(* Assert that BENCH_*.json artifacts parse with R3_util.Json and that
   every value in them survives serialize -> parse bit-exactly (floats
   compared as IEEE-754 bits). Run from @bench-check so a formatting
   regression in Json.number — or a hand-mangled artifact — fails
   `dune runtest` instead of a later analysis script.

   Usage: json_check.exe [FILE ...]; with no files only the built-in
   self-test over adversarial floats runs. *)

module J = R3_util.Json

(* Structural equality with floats by bits. An [Int]/[Float] pair counts
   as equal when the int converts to exactly that float: the printer emits
   integral floats like [1.0] as "1", which the parser reads back as
   [Int 1] — the bits are intact, only the tag moved. *)
let rec equal a b =
  match (a, b) with
  | J.Null, J.Null -> true
  | J.Bool x, J.Bool y -> x = y
  | J.Int x, J.Int y -> x = y
  | J.Float x, J.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | J.Int x, J.Float y | J.Float y, J.Int x ->
    Int64.equal (Int64.bits_of_float (float_of_int x)) (Int64.bits_of_float y)
  | J.Float x, J.Null | J.Null, J.Float x ->
    (* the printer emits non-finite floats as null, by design *)
    not (Float.is_finite x)
  | J.String x, J.String y -> String.equal x y
  | J.List x, J.List y -> (
    try List.for_all2 equal x y with Invalid_argument _ -> false)
  | J.Obj x, J.Obj y -> (
    try
      List.for_all2
        (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
        x y
    with Invalid_argument _ -> false)
  | _ -> false

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("json_check: " ^ s);
      exit 1)
    fmt

let check_doc what doc =
  let compact = J.of_string (J.to_string doc) in
  if not (equal doc compact) then fail "%s: compact round-trip mismatch" what;
  let pretty = J.of_string (J.to_string_pretty doc) in
  if not (equal doc pretty) then fail "%s: pretty round-trip mismatch" what

let field what obj k =
  match obj with
  | J.Obj kvs -> (
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> fail "%s: missing field %S" what k)
  | _ -> fail "%s: expected an object around %S" what k

let as_int what = function
  | J.Int i -> i
  | _ -> fail "%s: expected an int" what

(* Schema assertions for the sweep bench artifact: the executor section
   must carry the pool's lifetime counters, all non-negative. Keeps a
   bench refactor from silently dropping the stats the executor
   trajectory keys on. *)

let check_sweep what doc =
  match doc with
  | J.Obj kvs when List.assoc_opt "bench" kvs = Some (J.String "sweep") ->
    let pool = field what doc "pool" in
    List.iter
      (fun k ->
        let v = as_int (what ^ ".pool." ^ k) (field (what ^ ".pool") pool k) in
        if v < 0 then fail "%s: pool.%s is negative (%d)" what k v)
      [ "workers"; "tasks"; "steals"; "parks"; "max_queue_depth"; "resizes" ]
  | _ -> ()

let self_test () =
  let nasty =
    [
      0.1; 0.2; 0.30000000000000004; 1.0 /. 3.0; -0.0; 5e-324 (* min subnormal *);
      1.7976931348623157e308 (* max finite *); 2.2250738585072014e-308; 3.16e-2;
      1e22; 9007199254740993.0; 6.02214076e23; -123.456e-7; Float.pi;
    ]
  in
  check_doc "self-test"
    (J.Obj
       [
         ("floats", J.List (List.map (fun f -> J.Float f) nasty));
         ("nonfinite", J.List [ J.Float nan; J.Float infinity ]);
         (* both print as null *)
         ("ints", J.List [ J.Int max_int; J.Int min_int; J.Int 0; J.Int (-1) ]);
         ("strings", J.List [ J.String "a\"b\\c\nd\te\x01f"; J.String "" ]);
         ("misc", J.List [ J.Null; J.Bool true; J.Bool false; J.Obj []; J.List [] ]);
       ])

let check_file path =
  let doc =
    try J.read_file path with
    | J.Parse_error m -> fail "%s: parse error: %s" path m
    | Sys_error m -> fail "%s" m
  in
  check_doc path doc;
  check_sweep path doc;
  Printf.printf "json_check: %s ok\n" path

let () =
  self_test ();
  Array.iteri (fun i a -> if i > 0 then check_file a) Sys.argv;
  print_endline "json_check: self-test ok"
