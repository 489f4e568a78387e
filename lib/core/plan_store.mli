(** Crash-safe persistent storage for offline plans (DESIGN.md §16).

    The expensive half of R3 — solving the offline LP for the protection
    routing [p] — happens once; the artifact it produces {e is} the
    deployable object. This module writes a complete {!Offline.plan}
    (graph, commodities, demands, base and protection routings row by
    row as their stored entries, optimum MLU, LP statistics, and the
    {!Offline.config} it was solved under, all six fields and nothing
    else) as a versioned, CRC-checked
    binary snapshot via {!R3_util.Codec}, and reads it back bit-identically:
    a reloaded plan steps through {!Reconfig} to exactly the states the
    original would have produced.

    No [Marshal] anywhere — snapshots are stable across compiler versions.
    Writes are atomic (temp + fsync + rename). Loads validate the frame
    (magic, version, CRC) and then the payload's internal fingerprint
    before handing anything back; pass [?expect_graph] to additionally
    require that the plan was solved for a specific topology. *)

(** 8-byte frame magic ("R3PLANSS") and current format version. Bump the
    version on ANY layout change; old files are then rejected with a
    version-mismatch error (there is no migration — plans are cheap to
    regenerate relative to the cost of silently misreading one). *)
val magic : string

val version : int

(** MD5 hex digest over the encoded graph + solver config + commodities +
    demands — everything the solve depended on except the solution itself.
    Stored inside the snapshot; {!load} recomputes it from the decoded
    sections and rejects on mismatch. *)
val fingerprint : config:Offline.config -> Offline.plan -> string

(** Digest of the graph section alone — what [?expect_graph] compares. *)
val graph_fingerprint : R3_net.Graph.t -> string

(** [save path ~config plan] writes the snapshot atomically. [config]
    is the solver configuration the plan was produced under; it is
    stored, covered by the fingerprint, and shown by [r3 plan inspect]. *)
val save : string -> config:Offline.config -> Offline.plan -> unit

(** [load ?expect_graph path] decodes and validates a snapshot. Errors
    (all as [Error msg], never an exception) name the failing check:
    missing/truncated file, wrong magic, version mismatch, CRC mismatch,
    malformed payload (including an element count larger than the bytes
    left could hold, rejected before anything is allocated from it, and
    a base routing without one row per workload commodity or a
    protection without one row per link, pairs included), fingerprint
    mismatch, or — when [expect_graph] is given — a topology that
    differs from the one the plan was solved for. *)
val load :
  ?expect_graph:R3_net.Graph.t ->
  string ->
  (Offline.plan * Offline.config, string) result

(** Snapshot summary for [r3 plan inspect] — decoded headline facts plus
    the on-disk size. *)
type info = {
  version : int;
  bytes : int;
  fingerprint : string;
  nodes : int;
  links : int;
  commodities : int;
  f : int;
  mlu : float;
  config : Offline.config;  (** the configuration passed to {!save} *)
  base_nnz : int;  (** stored entries of the base routing ({!R3_net.Routing.nnz}) *)
  protection_nnz : int;  (** stored entries of the protection routing *)
}

val inspect : string -> (info, string) result
