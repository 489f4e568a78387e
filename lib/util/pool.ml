(* Persistent pool of worker domains running chunked index batches. One
   lock-guarded FIFO of helper jobs; idle workers sleep on one condition
   variable. DESIGN.md §17. *)

(* ---------- observability ---------- *)

module Obs = struct
  let tasks = Metrics.counter "r3.pool.tasks"
  let steals = Metrics.counter "r3.pool.steals"
  let parks = Metrics.counter "r3.pool.parks"
  let resizes = Metrics.counter "r3.pool.resizes"
  let max_queue_depth = Metrics.gauge "r3.pool.max_queue_depth"
  let workers = Metrics.gauge "r3.pool.workers"
end

(* Always-on mirrors of the r3.pool.* counters: the bench harness turns
   Metrics off while measuring instrumentation overhead, and the pool
   stats it reports afterwards must not lose that window. *)
let stat_tasks = Atomic.make 0
let stat_steals = Atomic.make 0
let stat_parks = Atomic.make 0
let stat_resizes = Atomic.make 0
let stat_max_depth = Atomic.make 0

(* ---------- pool state ---------- *)

let lock = Mutex.create ()
let cond = Condition.create ()

(* Guarded by [lock]. Every live worker domain is counted in exactly one
   of [workers] (members) and [retiring] (owed an exit by a shrink). *)
let queue : (unit -> unit) Queue.t = Queue.create ()
let workers = ref 0
let retiring = ref 0
let all_domains : unit Domain.t list ref = ref []
let shutting_down = ref false
let at_exit_installed = ref false

(* Pool size in domains, including the caller; [target - 1] workers. *)
let target =
  Atomic.make (Int.max 1 (Int.min 8 (Domain.recommended_domain_count ())))

let domains () = Atomic.get target

(* A worker runs queued jobs until the queue is empty, then retires if a
   shrink owes an exit, or leaves at shutdown, or sleeps. *)
let rec worker_loop () =
  Mutex.lock lock;
  let rec next () =
    match Queue.take_opt queue with
    | Some _ as job -> job
    | None when !retiring > 0 ->
      decr retiring;
      None
    | None when !shutting_down -> None
    | None ->
      Atomic.incr stat_parks;
      Metrics.incr Obs.parks;
      Condition.wait cond lock;
      next ()
  in
  let job = next () in
  Mutex.unlock lock;
  match job with
  | Some job ->
    job ();
    worker_loop ()
  | None -> ()

(* Runs at exit: the queue drains (workers leave only once it is empty)
   and every domain ever spawned is joined. *)
let shutdown_pool () =
  Mutex.lock lock;
  shutting_down := true;
  Condition.broadcast cond;
  let ds = !all_domains in
  all_domains := [];
  Mutex.unlock lock;
  List.iter Domain.join ds

(* Bring the members up to [target - 1], first by cancelling pending
   retirements, then by spawning. Growth is lazy: only a batch calls
   this. Caller holds [lock]. *)
let grow_locked () =
  let want = Atomic.get target - 1 in
  if !workers < want && not !shutting_down then begin
    if not !at_exit_installed then begin
      at_exit_installed := true;
      Stdlib.at_exit shutdown_pool
    end;
    let kept = Int.min !retiring (want - !workers) in
    retiring := !retiring - kept;
    for _ = 1 to want - !workers - kept do
      let d =
        Domain.spawn (fun () ->
            (* Backtrace recording is per-domain state; turn it on so
               worker-side exception backtraces survive the re-raise in
               the caller. *)
            Printexc.record_backtrace true;
            worker_loop ())
      in
      all_domains := d :: !all_domains
    done;
    workers := want;
    Metrics.set_gauge Obs.workers (float_of_int want)
  end

let set_domains n =
  let n = Int.max 1 (Int.min 64 n) in
  Mutex.lock lock;
  if n <> Atomic.get target then begin
    Atomic.set target n;
    Atomic.incr stat_resizes;
    Metrics.incr Obs.resizes;
    if !workers > n - 1 then begin
      (* Shrink now: the excess workers stop being members at once and
         exit as soon as they find the queue empty. *)
      retiring := !retiring + !workers - (n - 1);
      workers := n - 1;
      Metrics.set_gauge Obs.workers (float_of_int (n - 1));
      Condition.broadcast cond
    end
  end;
  Mutex.unlock lock

(* Queue [k] copies of [job] for the workers. *)
let enqueue k job =
  Mutex.lock lock;
  grow_locked ();
  for _ = 1 to k do
    Queue.push job queue;
    Condition.signal cond
  done;
  (* Written only under [lock], so a plain compare-and-store is exact. *)
  let depth = Queue.length queue in
  if depth > Atomic.get stat_max_depth then Atomic.set stat_max_depth depth;
  Mutex.unlock lock;
  ignore (Atomic.fetch_and_add stat_tasks k);
  Metrics.add Obs.tasks k

(* ---------- indexed batches ---------- *)

let run_indexed n (task : int -> 'a) : 'a array =
  let d = Atomic.get target in
  if d = 1 || n <= 1 then Array.init n task
  else begin
    (* About eight chunks per executor, balancing counter traffic against
       load balance; results never depend on it. *)
    let chunk = Int.max 1 (n / (8 * d)) in
    let n_chunks = ((n - 1) / chunk) + 1 in
    let results : 'a option array = Array.make n None in
    let errors : (exn * Printexc.raw_backtrace) option array = Array.make n None in
    let next = Atomic.make 0 and finished = Atomic.make 0 in
    let m = Mutex.create () and all_done = Condition.create () in
    (* Executors claim chunks from [next] until it runs out and write
       every result into the slot of its index, so the output never
       depends on scheduling. Returns [ran] plus the chunks it ran. *)
    let rec claim ran =
      let i0 = Atomic.fetch_and_add next chunk in
      if i0 >= n then ran
      else begin
        for i = i0 to Int.min (i0 + chunk) n - 1 do
          match task i with
          | v -> results.(i) <- Some v
          | exception e ->
            (* Captured on the raising stack; re-raising with it in the
               caller preserves the trace across domains. *)
            errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
        done;
        if Atomic.fetch_and_add finished 1 = n_chunks - 1 then begin
          Mutex.lock m;
          Condition.signal all_done;
          Mutex.unlock m
        end;
        claim (ran + 1)
      end
    in
    (* Queued helpers reach the batch only through [body], which the
       caller clears on return: a helper that starts late finds [None]
       and holds nothing of the batch's arrays. *)
    let body = Atomic.make (Some claim) in
    let helper () =
      match Atomic.get body with
      | Some claim ->
        let ran = claim 0 in
        ignore (Atomic.fetch_and_add stat_steals ran);
        Metrics.add Obs.steals ran
      | None -> ()
    in
    enqueue (Int.min (d - 1) (n_chunks - 1)) helper;
    ignore (claim 0);
    (* Every chunk is claimed now, each by an executor that is running
       it, so this wait ends without the caller running anything else. *)
    Mutex.lock m;
    while Atomic.get finished < n_chunks do
      Condition.wait all_done m
    done;
    Mutex.unlock m;
    Atomic.set body None;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.map
      (function Some v -> v | None -> assert false (* every slot filled *))
      results
  end

(* ---------- introspection ---------- *)

type stats = {
  workers : int;
  tasks : int;
  steals : int;
  parks : int;
  max_queue_depth : int;
  resizes : int;
}

let stats () =
  Mutex.lock lock;
  let live = !workers in
  Mutex.unlock lock;
  let s =
    {
      workers = live;
      tasks = Atomic.get stat_tasks;
      steals = Atomic.get stat_steals;
      parks = Atomic.get stat_parks;
      max_queue_depth = Atomic.get stat_max_depth;
      resizes = Atomic.get stat_resizes;
    }
  in
  Metrics.set_gauge Obs.max_queue_depth (float_of_int s.max_queue_depth);
  Metrics.set_gauge Obs.workers (float_of_int s.workers);
  s
