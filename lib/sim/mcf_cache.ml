(* Memo table for the optimal-MCF normalizer. The key scheme has two
   levels: a context digest (MD5 over the topology, commodities, demands
   and the solver's tag — everything the solve depends on besides the
   failure set) selects the table, and Scenario.key selects the entry.
   Values round-trip through the disk file as hex floats, so cache hits
   are bit-identical to the cold solves that produced them. *)

module G = R3_net.Graph

module Obs = struct
  module M = R3_util.Metrics

  let hits = M.counter "mcf_cache.hits"
  let misses = M.counter "mcf_cache.misses"
  let flushes = M.counter "mcf_cache.flushes"
  let loaded = M.counter "mcf_cache.entries_loaded"
end

type t = {
  table : (string, float) Hashtbl.t;
  file : string option;
  context : string;
  mutable dirty : bool;
}

(* Names the solver whose values a table holds. Change it whenever the
   normalizer changes, so no file of an older solver is read back. *)
let solver_tag = "Flow_lp.min_mlu_dest: exact per-destination LP"

let context_digest ~graph ~pairs ~demands =
  let buf = Buffer.create 4096 in
  let add_int i = Buffer.add_string buf (string_of_int i); Buffer.add_char buf ';' in
  let add_float f = Buffer.add_int64_le buf (Int64.bits_of_float f) in
  add_int (G.num_nodes graph);
  add_int (G.num_links graph);
  for e = 0 to G.num_links graph - 1 do
    add_int (G.src graph e);
    add_int (G.dst graph e);
    add_float (G.capacity graph e)
  done;
  add_int (Array.length pairs);
  Array.iter (fun (a, b) -> add_int a; add_int b) pairs;
  Array.iter add_float demands;
  Buffer.add_string buf solver_tag;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let load_file table path =
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         let line = input_line ic in
         match String.index_opt line ' ' with
         | Some i ->
           let key = String.sub line 0 i in
           let v = String.sub line (i + 1) (String.length line - i - 1) in
           (match float_of_string_opt v with
           | Some f -> Hashtbl.replace table key f
           | None -> ())
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic
  end

let create ?dir ~graph ~pairs ~demands () =
  let context = context_digest ~graph ~pairs ~demands in
  let table = Hashtbl.create 256 in
  let file =
    match dir with
    | None -> None
    | Some d ->
      let path = Filename.concat d (Printf.sprintf "mcf-%s.cache" context) in
      load_file table path;
      R3_util.Metrics.add Obs.loaded (Hashtbl.length table);
      Some path
  in
  { table; file; context; dirty = false }

let context t = t.context
let size t = Hashtbl.length t.table

let find t scenario =
  let r = Hashtbl.find_opt t.table (Scenario.key scenario) in
  (match r with
  | Some _ -> R3_util.Metrics.incr Obs.hits
  | None -> R3_util.Metrics.incr Obs.misses);
  r

let add t scenario value =
  let key = Scenario.key scenario in
  (* Bit-level equality: [v = value] is false for NaN = NaN, which would
     mark the table dirty (and rewrite the file) on every re-add of a NaN
     entry. The cache stores whatever the solver produced, bit for bit. *)
  let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  (match Hashtbl.find_opt t.table key with
  | Some v when same_bits v value -> ()
  | _ ->
    Hashtbl.replace t.table key value;
    t.dirty <- true)

(* [mkdir -p]: tolerate both pre-existing components and EEXIST races with
   a concurrent sweep creating the same directory. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

let flush t =
  match t.file with
  | None -> ()
  | Some path when t.dirty ->
    mkdir_p (Filename.dirname path);
    let entries =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    (* Write-to-temp + rename: a crash mid-write (or a second concurrent
       sweep flushing the same context) leaves the old file intact instead
       of truncated or interleaved. The temp name embeds the pid so two
       processes never share one. *)
    let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
    let oc = open_out tmp in
    (try
       List.iter (fun (k, v) -> Printf.fprintf oc "%s %h\n" k v) entries;
       close_out oc;
       Sys.rename tmp path;
       R3_util.Metrics.incr Obs.flushes
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    t.dirty <- false
  | Some _ -> ()
