(* Process-wide, domain-safe metrics.

   Every instrument is sharded: a metric owns [n_shards] independent cells
   and a writer picks its cell by [Domain.self () mod n_shards], so the
   sweep's parallel workers (at most 64 domains, see Parallel) never
   contend on a cache line they both write every event. Readers merge the
   shards on demand; reads are racy-but-monotone (a concurrent increment
   may or may not be visible), which is exactly what a progress/metrics
   export needs.

   Float cells (gauges, histogram sums/extrema) are stored as IEEE-754
   bits in an [int64 Atomic.t] and updated with CAS loops - OCaml has no
   atomic float. *)

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

(* ---- histograms ---- *)

(* Per-shard: bucket counts plus sum/min/max as float bits. Buckets are
   cumulative-upper-bound style: observation [v] lands in the first bucket
   with [v <= bound], or the overflow bucket. *)
type hist_shard = {
  buckets : int Atomic.t array; (* length = Array.length bounds + 1 *)
  count : int Atomic.t;
  sum : int64 Atomic.t;
  h_min : int64 Atomic.t;
  h_max : int64 Atomic.t;
}

type histogram = { bounds : float array; shards : hist_shard array }

type hist_snapshot = {
  hist_bounds : float array;
  hist_counts : int array; (* per bucket, overflow last *)
  hist_count : int;
  hist_sum : float;
  hist_min : float; (* infinity when empty *)
  hist_max : float; (* neg_infinity when empty *)
}

(* Default bounds suit wall-times in seconds: 1us .. ~100s, half-decade
   steps. *)
let default_bounds =
  [| 1e-6; 3.16e-6; 1e-5; 3.16e-5; 1e-4; 3.16e-4; 1e-3; 3.16e-3; 1e-2;
     3.16e-2; 1e-1; 3.16e-1; 1.0; 3.16; 10.0; 31.6; 100.0 |]

let atomic_float_update cell f =
  let rec loop () =
    let old_bits = Atomic.get cell in
    let v = f (Int64.float_of_bits old_bits) in
    let new_bits = Int64.bits_of_float v in
    if Int64.equal old_bits new_bits then ()
    else if not (Atomic.compare_and_set cell old_bits new_bits) then loop ()
  in
  loop ()

let observe h v =
  if Atomic.get enabled_flag && not (Float.is_nan v) then begin
    let sh = h.shards.(shard_index ()) in
    let nb = Array.length h.bounds in
    let b = ref 0 in
    while !b < nb && v > h.bounds.(!b) do Stdlib.incr b done;
    ignore (Atomic.fetch_and_add sh.buckets.(!b) 1);
    ignore (Atomic.fetch_and_add sh.count 1);
    atomic_float_update sh.sum (fun s -> s +. v);
    atomic_float_update sh.h_min (fun m -> Float.min m v);
    atomic_float_update sh.h_max (fun m -> Float.max m v)
  end

let hist_snapshot h =
  let nb = Array.length h.bounds + 1 in
  let counts = Array.make nb 0 in
  let count = ref 0 and sum = ref 0.0 in
  let mn = ref infinity and mx = ref neg_infinity in
  Array.iter
    (fun sh ->
      for b = 0 to nb - 1 do
        counts.(b) <- counts.(b) + Atomic.get sh.buckets.(b)
      done;
      count := !count + Atomic.get sh.count;
      sum := !sum +. Int64.float_of_bits (Atomic.get sh.sum);
      mn := Float.min !mn (Int64.float_of_bits (Atomic.get sh.h_min));
      mx := Float.max !mx (Int64.float_of_bits (Atomic.get sh.h_max)))
    h.shards;
  {
    hist_bounds = h.bounds;
    hist_counts = counts;
    hist_count = !count;
    hist_sum = !sum;
    hist_min = !mn;
    hist_max = !mx;
  }

let time h f =
  if Atomic.get enabled_flag then begin
    let t0 = Unix.gettimeofday () in
    let finally () = observe h (Float.max 0.0 (Unix.gettimeofday () -. t0)) in
    Fun.protect ~finally f
  end
  else f ()

(* ---- registry ---- *)

(* Instruments are interned by name: the same name always returns the same
   instrument, so modules can resolve handles lazily at first use and
   tests can look metrics up by name. Creation takes a mutex; the hot
   paths (incr/observe) never do. *)

let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

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

let histogram ?(bounds = default_bounds) name =
  intern histograms name (fun () ->
      let nb = Array.length bounds + 1 in
      {
        bounds;
        shards =
          Array.init n_shards (fun _ ->
              {
                buckets = Array.init nb (fun _ -> Atomic.make 0);
                count = Atomic.make 0;
                sum = Atomic.make (Int64.bits_of_float 0.0);
                h_min = Atomic.make (Int64.bits_of_float infinity);
                h_max = Atomic.make (Int64.bits_of_float neg_infinity);
              });
      })

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ c -> Array.iter (fun cell -> Atomic.set cell 0) c.cells)
        counters;
      Hashtbl.iter
        (fun _ g ->
          Atomic.set g.g_set false;
          Atomic.set g.g_cell 0L)
        gauges;
      Hashtbl.iter
        (fun _ h ->
          Array.iter
            (fun sh ->
              Array.iter (fun b -> Atomic.set b 0) sh.buckets;
              Atomic.set sh.count 0;
              Atomic.set sh.sum (Int64.bits_of_float 0.0);
              Atomic.set sh.h_min (Int64.bits_of_float infinity);
              Atomic.set sh.h_max (Int64.bits_of_float neg_infinity))
            h.shards)
        histograms)

(* ---- export ---- *)

type snapshot = {
  snap_counters : (string * int) list;
  snap_shards : (string * (int * int) list) list;
      (* per counter: (shard index, count) for nonzero shards, when more
         than one shard is populated *)
  snap_gauges : (string * float) list;
  snap_histograms : (string * hist_snapshot) list;
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
  let snap_histograms =
    List.filter_map
      (fun (n, h) ->
        let s = hist_snapshot h in
        if s.hist_count = 0 then None else Some (n, s))
      (sorted_bindings histograms)
  in
  { snap_counters; snap_shards; snap_gauges; snap_histograms }

let hist_to_json s =
  Json.Obj
    [
      ("count", Json.Int s.hist_count);
      ("sum", Json.Float s.hist_sum);
      ("mean",
       Json.Float
         (if s.hist_count = 0 then 0.0
          else s.hist_sum /. float_of_int s.hist_count));
      ("min", Json.Float s.hist_min);
      ("max", Json.Float s.hist_max);
      ("bounds", Json.List (Array.to_list (Array.map (fun b -> Json.Float b) s.hist_bounds)));
      ("buckets", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) s.hist_counts)));
    ]

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
      ("histograms",
       Json.Obj (List.map (fun (n, h) -> (n, hist_to_json h)) s.snap_histograms));
    ]

let find_counter name = with_registry (fun () -> Hashtbl.find_opt counters name)

let counter_value name =
  match find_counter name with Some c -> counter_total c | None -> 0
