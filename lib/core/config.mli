(** Unified workload configuration.

    One record carries every cross-cutting knob that used to be plumbed
    flag-by-flag through [Offline.config], the [r3] CLI and the bench
    harnesses: the workload PRNG seed, the two numeric tolerances shared
    by the online phase (detour rescaling) and the evaluation normalizer
    (optimal-MCF accuracy), and the pool size. Build one with {!default}
    and the builder-style [with_*] functions:

    {[ Config.(default |> with_seed 7 |> with_mcf_epsilon 0.01) ]}

    [Offline.with_core] embeds the record in the offline configuration;
    [r3] subcommands build it from [--seed] and [--domains]. *)

type t = {
  seed : int;  (** workload PRNG seed (default 42) *)
  mcf_epsilon : float;
      (** accuracy of the optimal-MCF evaluation normalizer
          (default 0.06, matching [Eval.make_env]) *)
  rescale_tol : float;
      (** [1 - p_e(e)] threshold below which the detour of equation (8)
          is declared undefined (default 1e-9, matching
          [Routing.rescale_detour]) *)
  domains : int option;
      (** preferred {!R3_util.Pool} size; [None] (default) keeps the
          machine-derived size. An execution knob only: results are
          bit-identical for any value, which is why it is {e not} part
          of the {!Plan_store} fingerprint. *)
}

val default : t

(** {2 Builders (pipe style: [Config.(default |> with_seed 7)])} *)

val with_seed : int -> t -> t
val with_mcf_epsilon : float -> t -> t
val with_rescale_tol : float -> t -> t

(** Clamped to [\[1, 64\]] like {!R3_util.Parallel.set_domains}. *)
val with_domains : int -> t -> t

(** Apply [domains] to the shared pool ({!R3_util.Parallel.set_domains});
    a no-op when [None]. CLI entry points call this once after parsing. *)
val apply_domains : t -> unit

(** {2 String parsing (CLI flags)} *)

(** [with_domains_string s t]: an integer in [1..64], or [auto] to keep
    the machine-derived pool size. Anything else is an [Error] naming the
    range. *)
val with_domains_string : string -> t -> (t, string) result

(** {2 Export} *)

(** The record as a JSON object — bench artifacts embed it so every
    BENCH_*.json names the exact configuration it measured. *)
val to_json : t -> R3_util.Json.t
