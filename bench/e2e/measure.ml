(* Outside-in measurement: a monotonic clock, a reference kernel that
   timed calls are normalized by, bench-side spans around calls into the
   library's public functions, and process memory.
   Nothing here reaches inside lib/: a span is opened and closed by the
   benchmark around one call. *)

module Stats = R3_util.Stats

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- host-speed normalization ---- *)

(* The benchmark's host is shared: its speed moves by up to 1.6x in
   spells of seconds to minutes, and the median wall time of a run moves
   with it (IQR / median across ten runs: 3-32%). Each timed call is
   therefore preceded by a fixed reference kernel, and the call's wall
   time is rescaled to a host where the kernel takes [reference_s]:
   [wall *. reference_s /. kernel]. The kernel is code of the
   benchmark's own, so a change to the library moves the call's time and
   not the kernel's. [reference_s] is a round value between the kernel's
   times on a 2-vCPU Intel Xeon VM: 16 ms in its fast state, 23 ms in
   its slow one. *)
let reference_s = 0.02

(* The kernel's data, built once. The kernel only overwrites it, and
   what it allocates dies young, so it promotes nothing and its time does
   not depend on the heap a workload leaves behind. *)
let kernel_n = 20_000
let kernel_floats = Array.init kernel_n (fun i -> float_of_int ((i * 7919) mod kernel_n) *. 1.5)
let kernel_scratch = Array.make kernel_n 0.0

let kernel_table =
  let h = Hashtbl.create 8192 in
  for i = 0 to 8191 do
    Hashtbl.replace h i 0
  done;
  h

(* Sorting boxed floats through a closure, hash-table updates, and
   short-lived lists of tuples. Of the kernels tried (these three, an
   integer loop, a float-array loop and lookups in a 30,000-key map),
   this mix slowed most like the workloads: normalized by it, run_s
   spread 1-3% across ten runs where wall time spread 3-28%. *)
let kernel () =
  Array.blit kernel_floats 0 kernel_scratch 0 kernel_n;
  Array.sort Float.compare kernel_scratch;
  for r = 0 to 7 do
    Array.iteri (fun i _ -> Hashtbl.replace kernel_table (((i * 31) + r) land 8191) i) kernel_scratch
  done;
  let s = ref 0.0 in
  for r = 1 to 400 do
    let l = List.init 1000 (fun i -> (i, kernel_scratch.(i * r mod kernel_n))) in
    s := List.fold_left (fun acc (i, x) -> acc +. x +. float_of_int i) !s l
  done;
  !s

type sample = { wall : float; kernel : float }

let normalized s = s.wall *. reference_s /. s.kernel

(* [timed f]: a full major GC, the kernel, then [f]. *)
let timed f =
  Gc.full_major ();
  let (), k = time (fun () -> ignore (Sys.opaque_identity (kernel ()))) in
  let r, dt = time f in
  (r, { wall = dt; kernel = k })

(* Words allocated by the calling domain so far. The layers pass runs at
   one domain, so a delta around a call is that call's allocation. *)
let alloc_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* [p]-th percentile, 0 when there are no samples (a layer not used). *)
let percentile p a = if Array.length a = 0 then 0.0 else Stats.percentile p a

(* ---- bench-side spans ---- *)

module Spans = struct
  type cell = {
    mutable count : int;
    mutable total : float;
    mutable alloc : float;  (* words *)
    mutable samples : float list;  (* durations, newest first *)
  }

  type t = (string, cell) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let cell (t : t) name =
    match Hashtbl.find_opt t name with
    | Some c -> c
    | None ->
      let c = { count = 0; total = 0.0; alloc = 0.0; samples = [] } in
      Hashtbl.add t name c;
      c

  (* [record t name f] runs [f] as one span named [name]. Spans are
     sequential and never nested, so their durations add up. *)
  let record t name f =
    let c = cell t name in
    let a0 = alloc_words () in
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    c.count <- c.count + 1;
    c.total <- c.total +. dt;
    c.alloc <- c.alloc +. (alloc_words () -. a0);
    c.samples <- dt :: c.samples;
    r

  let find (t : t) name = Hashtbl.find_opt t name
  let total t name = match find t name with Some c -> c.total | None -> 0.0
  let count t name = match find t name with Some c -> c.count | None -> 0
  let alloc t name = match find t name with Some c -> c.alloc | None -> 0.0

  let samples t name =
    match find t name with Some c -> Array.of_list c.samples | None -> [||]

  let covered (t : t) = Hashtbl.fold (fun _ c acc -> acc +. c.total) t 0.0
end

(* Peak resident set size in MB: VmHWM of /proc/self/status. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())
