type t = {
  seed : int;
  mcf_epsilon : float;
  rescale_tol : float;
  domains : int option;
}

let default =
  {
    seed = 42;
    mcf_epsilon = 0.06;
    rescale_tol = 1e-9;
    domains = None;
  }

let with_seed seed t = { t with seed }
let with_mcf_epsilon mcf_epsilon t = { t with mcf_epsilon }
let with_rescale_tol rescale_tol t = { t with rescale_tol }

let with_domains d t =
  { t with domains = Some (Int.max 1 (Int.min 64 d)) }

(* Resize the shared pool to this config's preference; [None] keeps the
   current (auto) size. Callers apply it once at entry points (the CLI
   config term), not per solve. *)
let apply_domains t =
  match t.domains with
  | Some d -> R3_util.Parallel.set_domains d
  | None -> ()

let with_domains_string s t =
  match s with
  | "auto" -> Ok { t with domains = None }
  | _ -> (
    match int_of_string_opt s with
    | Some d when d >= 1 && d <= 64 -> Ok (with_domains d t)
    | Some _ | None ->
      Error (Printf.sprintf "bad domain count %S (use an integer in 1..64 or auto)" s))

let to_json t =
  R3_util.Json.Obj
    [
      ("seed", R3_util.Json.Int t.seed);
      ("mcf_epsilon", R3_util.Json.Float t.mcf_epsilon);
      ("rescale_tol", R3_util.Json.Float t.rescale_tol);
      ( "domains",
        match t.domains with
        | Some d -> R3_util.Json.Int d
        | None -> R3_util.Json.String "auto" );
    ]
