(** Persistent work-stealing executor over OCaml 5 domains.

    One process-wide pool of worker domains, started lazily on first use
    and drained at exit. Each worker owns a Chase-Lev deque: it pushes and
    pops its own tasks at the bottom while idle workers steal from the
    top, so dynamically-generated task trees (the sweep's prefix forest,
    constraint-generation rounds) balance themselves instead of being
    statically partitioned. Idle workers park on a condition variable and
    are woken by an epoch counter bumped under the same lock, so a quiet
    pool costs nothing. See DESIGN.md section 17 for the deque layout,
    the parking protocol and the determinism argument.

    Determinism contract: none of the entry points here make results
    depend on scheduling. {!run_indexed} writes every result into the
    slot of its input index; {!submit}/{!await} return the value of one
    closure. Callers assemble outputs in program order, so the output is
    bit-identical for any pool size, including 1.

    Tasks must not touch shared mutable state except through their own
    slot (or the COW routing substrate, which is safe to fold from shared
    states concurrently - DESIGN.md section 9). *)

(** {1 Sizing} *)

(** Current pool size in domains, {e including} the caller: a pool of
    [d] keeps [d - 1] worker domains. Defaults to the machine's
    recommended domain count, capped at 8. *)
val domains : unit -> int

(** Resize the pool; values are clamped to [\[1, 64\]]. Shrinking takes
    effect as soon as the excess workers go idle (they finish in-flight
    tasks, spill any queued ones back to the shared queue, and exit);
    growing spawns the missing workers on the next submission. Safe to
    call at any time, including while tasks are running. *)
val set_domains : int -> unit

(** {1 Futures} *)

type 'a future

(** Queue a closure for execution by the pool and return its future.
    From inside a pool task the job lands on the submitting worker's own
    deque (cheap, lock-free); from outside it goes through the shared
    injector queue. The closure runs exactly once, on some domain. *)
val submit : (unit -> 'a) -> 'a future

(** Wait for a future. While the result is pending the caller {e helps}:
    it runs its own queued tasks, then injector and stolen tasks - so a
    running task may submit subtasks and await them without deadlock
    (the dependency graph of [submit]/[await] is a tree). Exceptions
    raised by the task are re-raised here with the worker-side
    backtrace. *)
val await : 'a future -> 'a

(** {1 Indexed batches} *)

(** [run_indexed n task] is [Array.init n task] computed by the pool:
    executors claim chunks of [\[0, n)] from a shared counter and write
    each result into the slot of its index. The caller participates, and
    at most [?domains - 1] (default: pool size - 1) helper tasks are
    queued. [?chunk] (default {!chunk_hint}) sets the claim granularity;
    results never depend on it. The first exception {e by input index}
    is re-raised with its executor-side backtrace. *)
val run_indexed : ?domains:int -> ?chunk:int -> int -> (int -> 'a) -> 'a array

(** Default claim granularity for a batch of [n]: [n / (8 * domains)],
    at least 1 - about eight chunks per executor, balancing counter
    traffic against load balance. *)
val chunk_hint : ?domains:int -> int -> int

(** {1 Introspection} *)

type stats = {
  workers : int;  (** worker domains currently live *)
  tasks : int;  (** closures submitted since start *)
  steals : int;  (** successful steals from another worker's deque *)
  parks : int;  (** times an idle executor blocked on the condition *)
  max_queue_depth : int;  (** peak depth of any deque or the injector *)
  resizes : int;  (** {!set_domains} calls that changed the size *)
}

(** Snapshot the lifetime counters (also exported as [r3.pool.*]
    metrics; these cells stay live even when {!Metrics.set_enabled} is
    off, so bench overhead runs do not lose them). *)
val stats : unit -> stats
