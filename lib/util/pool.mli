(** Persistent pool of worker domains that runs chunked index batches.

    One process-wide pool, started lazily by the first batch and drained
    at exit. {!run_indexed} is the only way work reaches it: the caller
    queues up to [domains () - 1] helper jobs on one lock-guarded FIFO,
    then it and the helpers claim chunks of [\[0, n)] from a shared
    counter. Idle workers sleep on one condition variable, so a quiet
    pool costs nothing. DESIGN.md section 17 has the nested-batch
    argument and the resize rule.

    Determinism contract: every result lands in the slot of its input
    index, so the output is bit-identical for any pool size, including
    1. Tasks must not touch shared mutable state except through their
    own slot (or the COW routing substrate, which is safe to fold from
    shared states concurrently - DESIGN.md section 9). *)

(** Current pool size in domains, {e including} the caller: a pool of
    [d] keeps [d - 1] worker domains. Defaults to the machine's
    recommended domain count, capped at 8. *)
val domains : unit -> int

(** Resize the pool; values are clamped to [\[1, 64\]]. A shrink takes
    effect at once in {!stats}; the excess workers exit as soon as they
    find the queue empty. Growth is lazy: the next batch spawns the
    missing workers. Safe to call at any time, including from a task of
    a running batch. *)
val set_domains : int -> unit

(** [run_indexed n task] is [Array.init n task] computed by the pool. It
    is [Array.init n task] itself on a pool of one or when [n <= 1].
    Otherwise executors claim chunks of [n / (8 * domains ())] indices
    (at least 1) and write each result into the slot of its index; the
    caller claims chunks too, then waits only for chunks other domains
    are running. A task may run a nested batch. The first exception
    {e by input index} is re-raised with its executor-side backtrace. *)
val run_indexed : int -> (int -> 'a) -> 'a array

(** {1 Introspection} *)

type stats = {
  workers : int;  (** worker domains that are members of the pool *)
  tasks : int;  (** helper jobs queued since start *)
  steals : int;
      (** chunks a worker ran for a batch that another domain started *)
  parks : int;  (** times an idle worker slept on the queue's condition *)
  max_queue_depth : int;  (** peak length of the job queue *)
  resizes : int;  (** {!set_domains} calls that changed the size *)
}

(** Snapshot the lifetime counters (also exported as [r3.pool.*]
    metrics; these cells stay live even when {!Metrics.set_enabled} is
    off, so bench overhead runs do not lose them). *)
val stats : unit -> stats
