(* Persistent work-stealing executor. One pool per process: worker
   domains with Chase-Lev deques, a lock-protected injector queue for
   submissions from outside the pool, and an epoch-counted parking
   protocol so idle workers sleep instead of spinning. DESIGN.md §17. *)

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

let rec bump_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then bump_max cell v

(* ---------- Chase-Lev deque ---------- *)

(* The classic work-stealing deque (Chase & Lev, SPAA'05): the owner
   pushes and pops at [bottom] without synchronization beyond SC atomic
   loads/stores; thieves advance [top] with a CAS. [top] is monotone, so
   there is no ABA. The circular buffer is published through an Atomic
   and grown by doubling; entries [top, bottom) stay valid in the old
   buffer, so a thief holding a stale buffer still reads the element it
   then CASes for. All three cells are SC atomics, which is what makes
   the element read before the CAS safe under the OCaml memory model:
   the owner only reuses a slot after growing (never in place), and a
   slot's job was published by the SC store to [bottom] that made the
   index visible. *)
module Deque = struct
  let dummy : unit -> unit = fun () -> ()

  type t = {
    top : int Atomic.t;
    bottom : int Atomic.t;
    buf : (unit -> unit) array Atomic.t;
  }

  let create () =
    { top = Atomic.make 0; bottom = Atomic.make 0; buf = Atomic.make (Array.make 64 dummy) }

  (* Owner only. *)
  let grow d t b =
    let a = Atomic.get d.buf in
    let len = Array.length a in
    let na = Array.make (2 * len) dummy in
    for i = t to b - 1 do
      na.(i land ((2 * len) - 1)) <- a.(i land (len - 1))
    done;
    Atomic.set d.buf na;
    na

  (* Owner only. *)
  let push d job =
    let b = Atomic.get d.bottom and t = Atomic.get d.top in
    let a = Atomic.get d.buf in
    let a = if b - t >= Array.length a then grow d t b else a in
    a.(b land (Array.length a - 1)) <- job;
    Atomic.set d.bottom (b + 1);
    bump_max stat_max_depth (b + 1 - t)

  (* Owner only. *)
  let pop d =
    let b = Atomic.get d.bottom - 1 in
    Atomic.set d.bottom b;
    let t = Atomic.get d.top in
    if b < t then begin
      (* was empty *)
      Atomic.set d.bottom t;
      None
    end
    else begin
      let a = Atomic.get d.buf in
      let job = a.(b land (Array.length a - 1)) in
      if b > t then Some job
      else begin
        (* last element: race thieves for it via the CAS on [top] *)
        let won = Atomic.compare_and_set d.top t (t + 1) in
        Atomic.set d.bottom (t + 1);
        if won then Some job else None
      end
    end

  (* Any domain. [None] means empty or a lost race; callers rescan. *)
  let steal d =
    let t = Atomic.get d.top in
    let b = Atomic.get d.bottom in
    if b - t <= 0 then None
    else begin
      let a = Atomic.get d.buf in
      let job = a.(t land (Array.length a - 1)) in
      if Atomic.compare_and_set d.top t (t + 1) then Some job else None
    end
end

(* ---------- pool state ---------- *)

type worker = { id : int; deque : Deque.t }

let lock = Mutex.create ()
let cond = Condition.create ()

(* Guarded by [lock]. *)
let injector : (unit -> unit) Queue.t = Queue.create ()
let n_parked = ref 0
let all_domains : unit Domain.t list ref = ref []
let at_exit_installed = ref false

(* Lock-free fast-path view of [Queue.length injector]. *)
let injector_n = Atomic.make 0

(* Bumped under [lock] whenever work or state changes (submission, task
   completion, resize, shutdown). An executor that found nothing records
   the epoch before its scan and parks only if it is unchanged under the
   lock - any concurrent publish either happened before the scan (and
   was found) or bumped the epoch (and the park is refused). No missed
   wakeups. *)
let epoch = Atomic.make 0

let shutting_down = Atomic.make false

(* Pool size in domains, including the caller; [target - 1] workers. *)
let target =
  Atomic.make (Int.max 1 (Int.min 8 (Domain.recommended_domain_count ())))

let workers : worker array Atomic.t = Atomic.make [||]
let domains () = Atomic.get target

let member w =
  let ws = Atomic.get workers in
  let n = Array.length ws in
  let rec go i = i < n && (ws.(i) == w || go (i + 1)) in
  go 0

(* Worker identity of the current domain, if it is a pool worker. *)
let dls_worker : worker option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Publish "something changed" to parked executors. *)
let wake_all () =
  Mutex.lock lock;
  Atomic.incr epoch;
  if !n_parked > 0 then Condition.broadcast cond;
  Mutex.unlock lock

let inject job =
  Mutex.lock lock;
  Queue.push job injector;
  let len = Queue.length injector in
  Atomic.set injector_n len;
  bump_max stat_max_depth len;
  Atomic.incr epoch;
  if !n_parked > 0 then Condition.broadcast cond;
  Mutex.unlock lock

let pop_injector () =
  if Atomic.get injector_n = 0 then None
  else begin
    Mutex.lock lock;
    let job = Queue.take_opt injector in
    Atomic.set injector_n (Queue.length injector);
    Mutex.unlock lock;
    job
  end

(* Steal rotation origin for executors that are not workers. *)
let steal_rr = Atomic.make 0

(* One scan for work: own deque (workers only), then the injector, then
   one pass over everybody else's deques. *)
let find_work me =
  let own =
    match me with
    | Some w -> Deque.pop w.deque
    | None -> None
  in
  match own with
  | Some _ as job -> job
  | None -> (
    match pop_injector () with
    | Some _ as job -> job
    | None ->
      let ws = Atomic.get workers in
      let n = Array.length ws in
      if n = 0 then None
      else begin
        let start =
          match me with
          | Some w -> w.id + 1
          | None -> Atomic.fetch_and_add steal_rr 1
        in
        let found = ref None in
        let i = ref 0 in
        while !found == None && !i < n do
          let v = ws.((start + !i) mod n) in
          let self = match me with Some w -> v == w | None -> false in
          if not self then begin
            match Deque.steal v.deque with
            | Some job ->
              Atomic.incr stat_steals;
              Metrics.incr Obs.steals;
              found := Some job
            | None -> ()
          end;
          incr i
        done;
        !found
      end)

(* Park until the epoch moves past [e]. Returns immediately if it
   already has. *)
let park e =
  Mutex.lock lock;
  if Atomic.get epoch = e && not (Atomic.get shutting_down) then begin
    incr n_parked;
    Atomic.incr stat_parks;
    Metrics.incr Obs.parks;
    Condition.wait cond lock;
    decr n_parked
  end;
  Mutex.unlock lock

(* ---------- workers ---------- *)

let rec worker_loop w =
  let e = Atomic.get epoch in
  match find_work (Some w) with
  | Some job ->
    job ();
    worker_loop w
  | None ->
    if Atomic.get shutting_down then ()
    else if not (member w) then
      (* Retired by a shrink. The deque is empty (we just failed to pop
         it and nobody else pushes to it), so just exit. *)
      ()
    else begin
      park e;
      worker_loop w
    end

(* Must run after [w] is published in [workers]: a worker that starts
   before its record is visible would read [member w = false] and retire
   on the spot. *)
let spawn_worker_locked w =
  let d =
    Domain.spawn (fun () ->
        (* Backtrace recording is per-domain state; turn it on so
           worker-side exception backtraces survive the re-raise in the
           caller no matter when the worker was spawned. *)
        Printexc.record_backtrace true;
        Domain.DLS.set dls_worker (Some w);
        worker_loop w)
  in
  all_domains := d :: !all_domains

(* Drain at exit: flag the shutdown, wake everyone, and join every
   domain ever spawned (retired ones finish instantly). Workers exit
   only from the "no work anywhere" branch, so queued tasks still run
   before the pool goes down. *)
let shutdown_pool () =
  Mutex.lock lock;
  Atomic.set shutting_down true;
  Atomic.incr epoch;
  Condition.broadcast cond;
  let ds = !all_domains in
  all_domains := [];
  Mutex.unlock lock;
  List.iter Domain.join ds;
  Atomic.set workers [||]

let ensure_workers () =
  let want = Atomic.get target - 1 in
  if Array.length (Atomic.get workers) < want && not (Atomic.get shutting_down)
  then begin
    Mutex.lock lock;
    let ws = Atomic.get workers in
    let have = Array.length ws in
    let want = Int.max 0 (Atomic.get target - 1) in
    if have < want && not (Atomic.get shutting_down) then begin
      if not !at_exit_installed then begin
        at_exit_installed := true;
        Stdlib.at_exit shutdown_pool
      end;
      let extra =
        Array.init (want - have) (fun k ->
            { id = have + k; deque = Deque.create () })
      in
      Atomic.set workers (Array.append ws extra);
      Array.iter spawn_worker_locked extra;
      Metrics.set_gauge Obs.workers (float_of_int want)
    end;
    Mutex.unlock lock
  end

let set_domains n =
  let n = Int.max 1 (Int.min 64 n) in
  Mutex.lock lock;
  if n <> Atomic.get target then begin
    Atomic.set target n;
    Atomic.incr stat_resizes;
    Metrics.incr Obs.resizes;
    let ws = Atomic.get workers in
    if Array.length ws > n - 1 then begin
      (* Shrink now: unpublish the tail workers. Still-running ones keep
         helping until idle, then exit; their deques are only ever fed
         by themselves, so nothing strands. Parked ones are woken to
         notice their retirement. *)
      Atomic.set workers (Array.sub ws 0 (n - 1));
      Metrics.set_gauge Obs.workers (float_of_int (n - 1));
      Atomic.incr epoch;
      if !n_parked > 0 then Condition.broadcast cond
    end
    (* Growth is lazy: the next submission spawns the missing workers. *)
  end;
  Mutex.unlock lock

(* ---------- futures ---------- *)

type 'a outcome = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace
type 'a future = 'a outcome Atomic.t

let submit (f : unit -> 'a) : 'a future =
  Atomic.incr stat_tasks;
  Metrics.incr Obs.tasks;
  let fut = Atomic.make Pending in
  let job () =
    let outcome =
      match f () with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Atomic.set fut outcome;
    (* Completion may unblock an awaiter parked on this future. *)
    wake_all ()
  in
  (match Domain.DLS.get dls_worker with
  | Some w ->
    Deque.push w.deque job;
    wake_all ()
  | None ->
    ensure_workers ();
    inject job);
  fut

let await (fut : 'a future) : 'a =
  let me = Domain.DLS.get dls_worker in
  let rec go () =
    match Atomic.get fut with
    | Done v -> v
    | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending -> (
      let e = Atomic.get epoch in
      (* Help: run other tasks while we wait. The submit/await graph is
         a tree, so some runnable task always exists while [fut] is
         pending - either we find it here, or whoever took it bumps the
         epoch on completion and [park] refuses to sleep. *)
      match find_work me with
      | Some job ->
        job ();
        go ()
      | None -> (
        match Atomic.get fut with
        | Done v -> v
        | Failed (ex, bt) -> Printexc.raise_with_backtrace ex bt
        | Pending ->
          park e;
          go ()))
  in
  go ()

(* ---------- indexed batches ---------- *)

let chunk_hint ?domains:d n =
  let d = match d with Some d -> Int.max 1 d | None -> Atomic.get target in
  Int.max 1 (n / (8 * d))

let run_indexed ?domains:d ?chunk n (task : int -> 'a) : 'a array =
  if n = 0 then [||]
  else begin
    let d = match d with Some d -> Int.max 1 (Int.min 64 d) | None -> Atomic.get target in
    if d = 1 || n = 1 then Array.init n task
    else begin
      let chunk =
        match chunk with Some c -> Int.max 1 c | None -> chunk_hint ~domains:d n
      in
      let results : 'a option array = Array.make n None in
      let errors : (exn * Printexc.raw_backtrace) option array = Array.make n None in
      let next = Atomic.make 0 in
      (* Executors claim [chunk]-sized index ranges from a shared
         counter; every result lands in the slot of its index, so the
         assembled output never depends on scheduling. *)
      let claim () =
        let continue = ref true in
        while !continue do
          let i0 = Atomic.fetch_and_add next chunk in
          if i0 >= n then continue := false
          else
            for i = i0 to Int.min (i0 + chunk) n - 1 do
              match task i with
              | v -> results.(i) <- Some v
              | exception e ->
                (* Captured on the raising stack; re-raising with it in
                   the caller preserves the trace across domains. *)
                errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
            done
        done
      in
      let n_chunks = ((n - 1) / chunk) + 1 in
      let helpers = Int.min (d - 1) (n_chunks - 1) in
      let futs = Array.init helpers (fun _ -> submit claim) in
      claim ();
      Array.iter await futs;
      Array.iter
        (function
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ())
        errors;
      Array.map
        (function Some v -> v | None -> assert false (* every slot filled *))
        results
    end
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
  let s =
    {
      workers = Array.length (Atomic.get workers);
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
