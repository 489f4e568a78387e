type report = {
  ilm_entries : int;
  nhlfe_entries : int;
  fib_bytes : int;
  rib_bytes : int;
}

let ilm_entry_bytes = 32
let nhlfe_entry_bytes = 96
let rib_entry_bytes = 104
let fib_overhead_bytes = 256

let of_protection g p =
  let ilm, nhlfe = Fib.max_table_sizes (Fib.of_protection g p) in
  let m = R3_net.Graph.num_links g in
  {
    ilm_entries = ilm;
    nhlfe_entries = nhlfe;
    fib_bytes = (ilm * ilm_entry_bytes) + (nhlfe * nhlfe_entry_bytes) + fib_overhead_bytes;
    rib_bytes = m * m * rib_entry_bytes;
  }

let human_bytes b =
  if b >= 1_048_576 then Printf.sprintf "%.1f MB" (float_of_int b /. 1_048_576.0)
  else if b >= 1_024 then Printf.sprintf "%.1f KB" (float_of_int b /. 1_024.0)
  else Printf.sprintf "%d B" b

let pp ppf r =
  Format.fprintf ppf "ILM %d, NHLFE %d, FIB %s, RIB %s" r.ilm_entries
    r.nhlfe_entries (human_bytes r.fib_bytes) (human_bytes r.rib_bytes)
