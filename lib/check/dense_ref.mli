(** A naive dense reference of R3's online fold, equations (8)–(10).

    Routings are plain [float array array] images
    ({!R3_net.Routing.to_dense_matrix}), and a failure scans every row:
    no sparse rows, no support index, no copy-on-write sharing, no
    pending bases. It is a second, independent implementation of what
    {!R3_core.Reconfig} computes, kept small enough to check by eye;
    the [routing-dense-reference] oracle and the routing tests compare
    the real fold against it bit for bit. *)

type t = {
  base : float array array;  (** [r], one row per commodity *)
  protection : float array array;  (** [p], row [l] protects link [l] *)
  failed : R3_net.Graph.link_set;  (** the links folded so far *)
}

(** Dense images of a state's pristine (no-failure) routings. *)
val pristine : R3_core.Reconfig.state -> t

(** [detour p e] is [xi_e] of (8) from the dense protection [p]: row [e]
    without entry [e], scaled by [1 / (1 - p_e(e))]; all zero when
    [p_e(e) >= 1 - rescale_tol] (the sparse fold's threshold,
    {!R3_net.Routing.rescale_tol}). *)
val detour : float array array -> R3_net.Graph.link -> float array

(** [fold_row row ~e ~xi] is (9)/(10) on one row: [row + on_e * xi] when
    [on_e = row.(e) > 0], then entry [e] set to [0.0]. Fresh array. *)
val fold_row : float array -> e:R3_net.Graph.link -> xi:float array -> float array

(** [fail t e] fails directed link [e]: every base row and every
    protection row but [e] is folded by [xi_e], and protection row [e]
    becomes [xi_e]. A link already failed is skipped. *)
val fail : t -> R3_net.Graph.link -> t

(** Fail the given directed links left to right. *)
val fold : t -> R3_net.Graph.link list -> t

(** The failed links of a link set in canonical order: by physical
    representative (the lower id of a bidirectional pair) ascending, the
    representative before its reverse — the order
    {!R3_core.Reconfig.fail} and {!R3_core.Reconfig.recover} fold in. *)
val canonical : R3_net.Graph.t -> R3_net.Graph.link_set -> R3_net.Graph.link list

(** [of_failed st failed] folds [failed] in canonical order from [st]'s
    pristine routings: what {!R3_core.Reconfig.fail} must produce for that
    failed set. *)
val of_failed : R3_core.Reconfig.state -> R3_net.Graph.link_set -> t

(** [of_failed st st.failed]. *)
val of_state : R3_core.Reconfig.state -> t

(** [mismatch st t] is [None] when [st] has [t]'s failed set and its
    (forced) base and protection routings have exactly the bits of [t],
    else a description of the first difference. *)
val mismatch : R3_core.Reconfig.state -> t -> string option
