(** The differential-fuzz oracle registry (DESIGN.md §18).

    An oracle is an executable cross-check: it derives every input it
    needs from a {!Case.t} (topology, demands, schedule, [sub_seed] for
    oracle-internal randomness) and checks one equivalence or theorem the
    codebase promises:

    - constraint generation, the dualized LP (7) and the structured
      envelope (18) with singleton SRLGs and k = F agree on MLU*;
    - random fail/recover folds equal a naive dense fold of (8)–(10)
      ({!Dense_ref}) bit for bit;
    - sequential fail/recover folds land on the canonical batch state and
      recovery restores the pristine plan (Theorem 3);
    - the online runtime over a fault-injected channel reaches the same
      terminal state as the batch fold, on every channel;
    - checkpoint pause/resume is lossless and corrupted checkpoints are
      rejected, never misread;
    - plan-store snapshots round-trip bit-identically and truncated or
      bit-flipped snapshots load as [Error];
    - the binary codec round-trips awkward floats and raises [Corrupt]
      (nothing else) on truncation;
    - a congestion-free plan stays congestion-free after reconfiguration
      under every single-event scenario (Theorems 1–2);
    - {!R3_sim.Scenarios.sample} honours its size/distinctness/shortfall
      contract;
    - {!R3_util.Stats} and {!R3_util.Prng} honour their documented
      contracts;
    - the normalizer ({!R3_mcf.Flow_lp.min_mlu_dest}) equals the
      per-pair exact min-MLU LP within 1e-9 relative, and Garg–Könemann
      at ε 0.06 converges before its iteration cap and lies between the
      exact optimum and exact / (1 − ε)³, with no failure, under one
      physical failure and under two (which may partition). On the same
      scenarios and an OSPF base, the [opt] detour's reroute LP
      ({!R3_mcf.Flow_lp.min_mlu}, started from shortest detours) equals
      its two-phase build ({!Reroute_ref}) within 1e-9 relative, so does
      {!R3_baselines.Opt_detour.evaluate}'s bottleneck, and a detour
      that loses no failed link has a bottleneck of at least the exact
      optimum × (1 − 1e-9).

    Oracles are deterministic in the case: the fuzz runner and the corpus
    replay both call {!run} and expect the same verdict. *)

type t = {
  name : string;  (** stable kebab-case registry key (corpus files use it) *)
  doc : string;  (** one-line description for [r3 fuzz --list] *)
  check : Case.t -> unit;  (** raises {!Failed} (or anything) on violation *)
}

(** Raised by oracle bodies on a violated property. *)
exception Failed of string

(** [run o case] is [Ok ()] or [Error message]; any exception the check
    raises (including {!Failed}) becomes [Error] — the runner never dies
    on a misbehaving oracle. *)
val run : t -> Case.t -> (unit, string) result

(** Registration order is the round-robin order of the fuzz loop. *)
val all : t list

val names : string list
val find : string -> t option
