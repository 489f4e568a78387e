(** Failure detection and notification flooding (Section 4.3).

    A failure is detected at the failed link's head by layer-2 interface
    monitoring after [detection_ms]; the notification (ICMP type 42 in the
    prototype) floods over surviving links, taking per-link propagation
    delay plus [per_hop_ms] processing. Routers rescale their local [p]
    on arrival; Theorem 3 makes the arrival order irrelevant. *)

type config = {
  detection_ms : float;  (** layer-2 detection latency *)
  per_hop_ms : float;  (** per-router flooding overhead *)
}

(** The latencies every notification uses: 30 ms detection, 1 ms per
    hop. *)
val default_config : config

(** [arrival_times g ~failed ~link] gives, per router, the absolute
    time (ms, from the failure instant) at which the notification for
    [link] arrives; [infinity] for routers partitioned from the detector.
    The head router itself gets [detection_ms]. *)
val arrival_times :
  R3_net.Graph.t ->
  failed:R3_net.Graph.link_set ->
  link:R3_net.Graph.link ->
  float array

(** Time by which every (reachable) router has been notified. *)
val convergence_time :
  R3_net.Graph.t ->
  failed:R3_net.Graph.link_set ->
  link:R3_net.Graph.link ->
  float
