(** A two-phase reference for {!R3_mcf.Flow_lp.min_mlu}, the reroute LP
    behind the [opt] detour and the exact min-MLU LP.

    The production solve starts from shortest detours; this one builds
    the same LP through the same block ({!R3_mcf.Flow_lp.add},
    {!R3_mcf.Flow_lp.load_terms}, {!R3_mcf.Flow_lp.add_penalty}, in the
    same order) and solves it from the slack and artificial basis, phase
    1 first. The two must reach the same MLU; the agreement test and the
    [mcf-bounds] oracle compare them. *)

(** The MLU of [Flow_lp.min_mlu g ~failed ~pairs ~demands ~background],
    solved with no start basis, or the LP status when it is not
    optimal. *)
val min_mlu :
  R3_net.Graph.t ->
  failed:R3_net.Graph.link_set ->
  pairs:(R3_net.Graph.node * R3_net.Graph.node) array ->
  demands:float array ->
  background:float array ->
  (float, string) result

(** The reroute LP that {!R3_baselines.Opt_detour.evaluate} documents,
    derived here from the base routing on its own: one commodity per
    failed link with positive base load whose endpoints stay connected,
    in link order, from its head to its tail, carrying that load; the
    base loads of every link as background. Returns [(pairs, demands,
    background)], the arguments of {!min_mlu}. *)
val opt_detour_lp :
  R3_net.Graph.t ->
  failed:R3_net.Graph.link_set ->
  base:R3_net.Routing.t ->
  demands:float array ->
  (R3_net.Graph.node * R3_net.Graph.node) array * float array * float array
