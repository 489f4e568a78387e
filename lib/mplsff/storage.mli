(** Router storage accounting for Table 3.

    Cost model (bytes), chosen to match the magnitudes the paper reports
    for its Linux prototype:
    - an ILM entry costs 32 B, an NHLFE 96 B; the FIB of a router is the
      sum over its tables plus a 256 B fixed overhead;
    - the RIB stores the router's local copy of the full protection routing
      [p] — one entry per (protected link, link) pair at 104 B (label, link
      ids, splitting ratio, bookkeeping), i.e. [|E|^2 * 104] B.

    With these constants Abilene comes to < 9 KB FIB and < 83 KB RIB and
    UUNet to < 11 MB RIB, the paper's Table 3 envelope. *)

type report = {
  ilm_entries : int;  (** largest ILM across routers *)
  nhlfe_entries : int;  (** largest NHLFE table across routers *)
  fib_bytes : int;  (** FIB of the largest router *)
  rib_bytes : int;  (** per-router protection RIB *)
}

(** Account a protection plan (builds its FIB). *)
val of_protection : R3_net.Graph.t -> R3_net.Routing.t -> report

val pp : Format.formatter -> report -> unit
