let domains = Pool.domains
let set_domains = Pool.set_domains

let domains_of_string = function
  | "auto" -> Ok None
  | s -> (
    match int_of_string_opt s with
    | Some d when d >= 1 && d <= 64 -> Ok (Some d)
    | Some _ | None ->
      Error (Printf.sprintf "bad domain count %S (use an integer in 1..64 or auto)" s))
let map f a = Pool.run_indexed (Array.length a) (fun i -> f a.(i))
let init = Pool.run_indexed
