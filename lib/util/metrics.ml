(* Process-wide, domain-safe metrics.

   Every counter is sharded: it owns [n_shards] independent cells
   and a writer picks its cell by [Domain.self () mod n_shards], so the
   sweep's parallel workers (at most 64 domains, see Parallel) never
   contend on a cache line they both write every event. Readers merge the
   shards on demand; reads are racy-but-monotone (a concurrent increment
   may or may not be visible), which is exactly what a progress/metrics
   export needs.

   A gauge stores its float as IEEE-754 bits in an [int64 Atomic.t] -
   OCaml has no atomic float. *)

let n_shards = 64 (* >= Parallel's domain cap, and a power of two *)

let shard_index () = (Domain.self () :> int) land (n_shards - 1)

(* Global on/off. Disabled metrics cost one atomic load per event - the
   same check the enabled path pays - so flipping this measures the
   recording overhead itself, not the check. *)
let enabled_flag = Atomic.make true

let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* ---- counters ---- *)

type counter = { cells : int Atomic.t array }

let counter_total c =
  Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.cells

let counter_shards c = Array.map Atomic.get c.cells

let add c n =
  if n <> 0 && Atomic.get enabled_flag then
    ignore (Atomic.fetch_and_add c.cells.(shard_index ()) n)

let incr c = add c 1

(* ---- gauges (last-write-wins float) ---- *)

type gauge = { g_cell : int64 Atomic.t; g_set : bool Atomic.t }

let set_gauge g v =
  if Atomic.get enabled_flag then begin
    Atomic.set g.g_cell (Int64.bits_of_float v);
    Atomic.set g.g_set true
  end

let gauge_value g =
  if Atomic.get g.g_set then Some (Int64.float_of_bits (Atomic.get g.g_cell))
  else None

(* ---- registry ---- *)

(* Instruments are interned by name: the same name always returns the same
   instrument, so modules can resolve handles lazily at first use and
   tests can look metrics up by name. Creation takes a mutex; the hot
   paths (incr/add/set_gauge) never do. *)

let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let intern table name make =
  match Hashtbl.find_opt table name with
  | Some v -> v (* fast path: no lock on re-lookup of an interned name *)
  | None ->
    with_registry (fun () ->
        match Hashtbl.find_opt table name with
        | Some v -> v
        | None ->
          let v = make () in
          Hashtbl.replace table name v;
          v)

let counter name =
  intern counters name (fun () ->
      { cells = Array.init n_shards (fun _ -> Atomic.make 0) })

let gauge name =
  intern gauges name (fun () ->
      { g_cell = Atomic.make 0L; g_set = Atomic.make false })

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ c -> Array.iter (fun cell -> Atomic.set cell 0) c.cells)
        counters;
      Hashtbl.iter
        (fun _ g ->
          Atomic.set g.g_set false;
          Atomic.set g.g_cell 0L)
        gauges)

(* ---- export ---- *)

type snapshot = {
  snap_counters : (string * int) list;
  snap_shards : (string * (int * int) list) list;
      (* per counter: (shard index, count) for nonzero shards, when more
         than one shard is populated *)
  snap_gauges : (string * float) list;
}

let sorted_bindings table =
  with_registry (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  let cs = sorted_bindings counters in
  let snap_counters = List.map (fun (n, c) -> (n, counter_total c)) cs in
  let snap_shards =
    List.filter_map
      (fun (n, c) ->
        let nonzero =
          Array.to_list (Array.mapi (fun i v -> (i, v)) (counter_shards c))
          |> List.filter (fun (_, v) -> v <> 0)
        in
        if List.length nonzero > 1 then Some (n, nonzero) else None)
      cs
  in
  let snap_gauges =
    List.filter_map
      (fun (n, g) -> Option.map (fun v -> (n, v)) (gauge_value g))
      (sorted_bindings gauges)
  in
  { snap_counters; snap_shards; snap_gauges }

let to_json () =
  let s = snapshot () in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.snap_counters));
      ("per_domain",
       Json.Obj
         (List.map
            (fun (n, shards) ->
              ( n,
                Json.Obj
                  (List.map
                     (fun (i, v) -> (string_of_int i, Json.Int v))
                     shards) ))
            s.snap_shards));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) s.snap_gauges));
    ]

let find_counter name = with_registry (fun () -> Hashtbl.find_opt counters name)

let counter_value name =
  match find_counter name with Some c -> counter_total c | None -> 0
