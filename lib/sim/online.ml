module G = R3_net.Graph
module Reconfig = R3_core.Reconfig
module Notify = R3_mplsff.Notify
module Fib = R3_mplsff.Fib
module Prng = R3_util.Prng
module Metrics = R3_util.Metrics
module Trace = R3_util.Trace

type event_kind = Fail | Recover

type event = { at_ms : float; link : G.link; kind : event_kind }

(* ---- seeded schedule generation ---- *)

(* Mean gap between events, and the chance of a recovery when a failure
   is legal too. *)
let mean_gap_ms = 250.0
let recover_bias = 0.6

let generate g ~seed ~events ?(max_concurrent = 2) () =
  if events < 0 then invalid_arg "Online.generate: negative event count";
  if max_concurrent < 1 then invalid_arg "Online.generate: max_concurrent < 1";
  let phys = Scenarios.physical_links g in
  if Array.length phys = 0 then []
  else begin
    let rng = Prng.create seed in
    let down = Hashtbl.create 8 in
    let down_reps () =
      Hashtbl.fold (fun e () acc -> e :: acc) down [] |> List.sort compare
    in
    let failed_with extra =
      let sc = Scenario.of_physical g (extra @ down_reps ()) in
      G.fail_links g (Scenario.links sc)
    in
    (* A failure pick must keep the survivors strongly connected, both so
       the congestion-free guarantee is in scope and so notification
       flooding reaches every router. Rejection-sample a few times; links
       whose loss would partition (e.g. bridges) simply stay up. *)
    let try_fail () =
      let rec go k =
        if k = 0 then None
        else begin
          let e = Prng.choose rng phys in
          if Hashtbl.mem down e then go (k - 1)
          else if G.strongly_connected g ~failed:(failed_with [ e ]) () then
            Some e
          else go (k - 1)
        end
      in
      go 32
    in
    let out = ref [] in
    let t = ref 0.0 in
    for _ = 1 to events do
      t := !t +. Prng.exponential rng ~mean:mean_gap_ms;
      let n_down = Hashtbl.length down in
      let recover () =
        let reps = Array.of_list (down_reps ()) in
        let e = Prng.choose rng reps in
        Hashtbl.remove down e;
        out := { at_ms = !t; link = e; kind = Recover } :: !out
      in
      let want_recover =
        n_down > 0 && (n_down >= max_concurrent || Prng.bool rng recover_bias)
      in
      if want_recover then recover ()
      else begin
        match try_fail () with
        | Some e ->
          Hashtbl.add down e ();
          out := { at_ms = !t; link = e; kind = Fail } :: !out
        | None -> if n_down > 0 then recover ()
      end
    done;
    List.rev !out
  end

(* ---- channel model ---- *)

module Channel = struct
  type faults = {
    jitter_ms : float;
    dup_prob : float;
    drop_prob : float;
    max_retries : int;
    backoff_ms : float;
  }

  let default_faults =
    {
      jitter_ms = 15.0;
      dup_prob = 0.2;
      drop_prob = 0.2;
      max_retries = 5;
      backoff_ms = 40.0;
    }

  type t = {
    faults : faults option;
    cname : string;
  }

  let ideal () = { faults = None; cname = "ideal" }
  let faulty faults = { faults = Some faults; cname = "faulty" }

  let name c = c.cname
end

type stats = {
  events : int;
  deliveries : int;
  stale : int;
  drops : int;
  retries : int;
  distinct_states : int;
  convergence_ms : float array;
  transient_mlu_peak : float;
  min_delivered : float;
  violation_windows : (float * float) list;
}

type outcome = {
  terminal : Reconfig.state;
  order_independent : bool;
  fib_consistent : bool;
  quiescent_mlu : float;
  stats : stats;
}

(* One notification copy en route to one router. *)
type delivery = { at : float; seq : int; ev : int; router : G.node }

let c_events = Metrics.counter "r3.online.events"
let c_deliveries = Metrics.counter "r3.online.deliveries"
let c_stale = Metrics.counter "r3.online.stale"
let c_drops = Metrics.counter "r3.online.drops"
let c_retries = Metrics.counter "r3.online.retries"
let c_states = Metrics.counter "r3.online.states"

let g_quiescent = Metrics.gauge "r3.online.quiescent_mlu"

(* Deterministic per-(event, router) fault stream, independent of how many
   draws other streams made. *)
let copy_rng ~seed ~ev ~router =
  Prng.create ((seed * 0x2545F49) lxor ((ev + 1) * 1_000_003) lxor ((router + 1) * 7919))

(* ---- checkpoints ---- *)

module Checkpoint = struct
  module Codec = R3_util.Codec
  module W = Codec.W
  module R = Codec.R

  (* Everything the delivery loop accumulates; the delivery schedule
     itself is NOT stored — it is a deterministic function of
     (root, events, channel, seed) and is re-expanded on resume, with
     [digest] guaranteeing the checkpoint belongs to that same run. *)
  type t = {
    digest : string;
    cursor : int;  (* deliveries already processed *)
    stale : int;
    seen : int array array;
    belief : bool array array;
    dp_belief : bool array;
    pending : int array;
    convergence : float array;
    peak : float;
    min_delivered : float;
    violation_start : float option;
    violations : (float * float) list;  (* newest first, like the run *)
    last_at : float;
  }

  let magic = "R3ONLNCK"
  let version = 1
  let cursor t = t.cursor

  let bools_to_string a =
    String.init (Array.length a) (fun i -> if a.(i) then '\001' else '\000')

  let bools_of_string s =
    Array.init (String.length s) (fun i ->
        match s.[i] with
        | '\000' -> false
        | '\001' -> true
        | c -> raise (R.Corrupt (Printf.sprintf "bad bool byte %d" (Char.code c))))

  let save path t =
    let w = W.create () in
    W.string w t.digest;
    W.int w t.cursor;
    W.int w t.stale;
    W.i32 w (Array.length t.seen);
    Array.iter (W.int_array w) t.seen;
    Array.iter (fun row -> W.string w (bools_to_string row)) t.belief;
    W.string w (bools_to_string t.dp_belief);
    W.int_array w t.pending;
    W.float_array w t.convergence;
    W.float w t.peak;
    W.float w t.min_delivered;
    (match t.violation_start with
    | None -> W.bool w false
    | Some v ->
      W.bool w true;
      W.float w v);
    W.i32 w (List.length t.violations);
    List.iter
      (fun (a, b) ->
        W.float w a;
        W.float w b)
      t.violations;
    W.float w t.last_at;
    Codec.write_framed path ~magic ~version (W.contents w)

  let load path =
    match Codec.read_framed path ~magic ~version with
    | Error _ as e -> e
    | Ok payload -> (
      try
        let r = R.of_string payload in
        let digest = R.string r in
        let cursor = R.int r in
        let stale = R.int r in
        let n = R.i32 r in
        (* Each router's two rows carry a 4-byte length prefix apiece, so
           the count is bounded by the bytes left before anything is
           allocated for it. *)
        if n < 0 || n > R.remaining r / 8 then raise (R.Corrupt "bad router count");
        let seen = Array.init n (fun _ -> R.int_array r) in
        let belief = Array.init n (fun _ -> bools_of_string (R.string r)) in
        let dp_belief = bools_of_string (R.string r) in
        let pending = R.int_array r in
        let convergence = R.float_array r in
        let peak = R.float r in
        let min_delivered = R.float r in
        let violation_start = if R.bool r then Some (R.float r) else None in
        let nv = R.i32 r in
        if nv < 0 || nv > R.remaining r / 16 then
          raise (R.Corrupt "bad violation window count");
        let violations =
          List.init nv (fun _ ->
              let a = R.float r in
              let b = R.float r in
              (a, b))
        in
        let last_at = R.float r in
        R.expect_end r;
        Ok
          {
            digest;
            cursor;
            stale;
            seen;
            belief;
            dp_belief;
            pending;
            convergence;
            peak;
            min_delivered;
            violation_start;
            violations;
            last_at;
          }
      with R.Corrupt msg ->
        Error (Printf.sprintf "%s: malformed checkpoint: %s" path msg))
end

(* Identity of a run: the checkpointed protocol state is only meaningful
   against the exact same root plan, event schedule, channel and seed. *)
let run_digest ~channel ~seed ~mlu_bound ~fibs root events =
  let module W = R3_util.Codec.W in
  let w = W.create () in
  W.string w (R3_core.Plan_store.graph_fingerprint root.Reconfig.graph);
  W.i32 w (Array.length root.Reconfig.pairs);
  Array.iter
    (fun (a, b) ->
      W.i32 w a;
      W.i32 w b)
    root.Reconfig.pairs;
  W.float_array w root.Reconfig.demands;
  W.i32 w (Array.length events);
  Array.iter
    (fun ev ->
      W.float w ev.at_ms;
      W.i32 w ev.link;
      W.u8 w (match ev.kind with Fail -> 0 | Recover -> 1))
    events;
  W.string w channel.Channel.cname;
  (* every channel floods with the default latencies *)
  W.float w Notify.default_config.Notify.detection_ms;
  W.float w Notify.default_config.Notify.per_hop_ms;
  (match channel.Channel.faults with
  | None -> W.bool w false
  | Some f ->
    W.bool w true;
    W.float w f.Channel.jitter_ms;
    W.float w f.Channel.dup_prob;
    W.float w f.Channel.drop_prob;
    W.int w f.Channel.max_retries;
    W.float w f.Channel.backoff_ms);
  W.int w seed;
  W.float w mlu_bound;
  W.bool w fibs;
  Digest.to_hex (Digest.string (W.contents w))

(* The run's delivery schedule, a pure function of (events, channel,
   seed): the true failed set after each event, every notification copy
   in arrival order, and the number of copies the channel lost. *)
let schedule ~channel ~seed g events =
  let n = G.num_nodes g in
  let ne = Array.length events in
  (* True failed set after each event, for notification flooding. The
     down-set fold is stateful and cheap; the per-event SPF flood times
     are pure given the failed set, so they fan out over the pool in
     slot order. *)
  let scenario_after = Array.make ne (Scenario.of_physical g []) in
  begin
    let down = Hashtbl.create 8 in
    Array.iteri
      (fun i ev ->
        (match ev.kind with
        | Fail -> Hashtbl.replace down ev.link ()
        | Recover -> Hashtbl.remove down ev.link);
        let reps =
          Hashtbl.fold (fun e () acc -> e :: acc) down [] |> List.sort compare
        in
        scenario_after.(i) <- Scenario.of_physical g reps)
      events
  end;
  let arrival_after =
    R3_util.Parallel.init ne (fun i ->
        Notify.arrival_times g
          ~failed:(G.fail_links g (Scenario.links scenario_after.(i)))
          ~link:events.(i).link)
  in
  (* Expand every (event, router) notification into its delivery copies.
     Faults are precomputable: drops, retransmissions and duplicates do not
     depend on receiver state, so the whole delivery schedule is known
     upfront and a sort replaces a priority queue. Per-event streams are
     independent — the per-copy RNG is keyed by (seed, event, router) —
     so events expand in parallel; the global [seq] tiebreaker is then
     assigned sequentially in the same event/router/attempt order the
     serial loop used, keeping the sorted schedule bit-identical for any
     domain count. *)
  let expanded =
    R3_util.Parallel.init ne (fun i ->
        let ev = events.(i) in
        let drops = ref 0 in
        let copies = ref [] in
        (* built newest-first, reversed once below *)
        let push at router = copies := (at, router) :: !copies in
        for v = 0 to n - 1 do
          let flood = arrival_after.(i).(v) in
          (* [infinity] = router partitioned from the detector; with the
             connectivity-preserving generator this cannot happen, but a
             hand-built schedule may do it — the router then simply never
             hears about this event. *)
          if flood < infinity then begin
            let base = ev.at_ms +. flood in
            match channel.Channel.faults with
            | None -> push base v
            | Some f ->
              let rng = copy_rng ~seed ~ev:i ~router:v in
              let lost = ref 0 in
              while
                !lost < f.Channel.max_retries && Prng.bool rng f.Channel.drop_prob
              do
                incr lost
              done;
              drops := !drops + !lost;
              let attempt_base =
                base +. (float_of_int !lost *. f.Channel.backoff_ms)
              in
              let jitter () =
                if f.Channel.jitter_ms > 0.0 then
                  Prng.float rng f.Channel.jitter_ms
                else 0.0
              in
              push (attempt_base +. jitter ()) v;
              let dups = ref 0 in
              while !dups < 3 && Prng.bool rng f.Channel.dup_prob do
                push (attempt_base +. jitter ()) v;
                incr dups
              done
          end
        done;
        (List.rev !copies, !drops))
  in
  let stat_drops = ref 0 in
  let deliveries = ref [] in
  let n_copies = ref 0 in
  Array.iteri
    (fun i (copies, drops) ->
      stat_drops := !stat_drops + drops;
      List.iter
        (fun (at, router) ->
          deliveries := { at; seq = !n_copies; ev = i; router } :: !deliveries;
          incr n_copies)
        copies)
    expanded;
  let deliveries = Array.of_list !deliveries in
  Array.sort
    (fun a b ->
      match Float.compare a.at b.at with 0 -> compare a.seq b.seq | c -> c)
    deliveries;
  (scenario_after, deliveries, !stat_drops)

let run_to ?(channel = Channel.ideal ()) ?(seed = 0) ?(mlu_bound = infinity)
    ?(fibs = false) ?resume ?stop_after root events =
  Trace.with_span "online.run" @@ fun () ->
  let g = root.Reconfig.graph in
  let n = G.num_nodes g in
  let m = G.num_links g in
  let events =
    Array.of_list (List.stable_sort (fun a b -> Float.compare a.at_ms b.at_ms) events)
  in
  let ne = Array.length events in
  Array.iteri
    (fun i ev ->
      if ev.link < 0 || ev.link >= m then invalid_arg "Online.run: bad link";
      if ev.link <> G.physical_rep g ev.link then
        invalid_arg "Online.run: event links must be physical representatives";
      ignore i)
    events;
  (* On resume the pre-pause portion already counted its events. *)
  (match resume with None -> Metrics.add c_events ne | Some _ -> ());
  let scenario_after, deliveries, stat_drops =
    Trace.with_span "online.schedule" (fun () -> schedule ~channel ~seed g events)
  in
  (* Every lost copy is retransmitted. *)
  let stat_retries = stat_drops in
  (* Memoized canonical states: every believed failed set maps to the
     batch application of that set in canonical scenario order, built by
     prefix recursion — so a router view's float bits depend only on its
     believed set, never on delivery order (Theorem 3, executably). *)
  let memo = Scenario.Tbl.create 64 in
  Scenario.Tbl.add memo (Scenario.of_physical g []) root;
  let rec canonical sc =
    match Scenario.Tbl.find_opt memo sc with
    | Some st -> st
    | None ->
      let rec split_last acc = function
        | [] -> assert false
        | [ last ] -> (List.rev acc, last)
        | x :: tl -> split_last (x :: acc) tl
      in
      let prefix, last = split_last [] (Scenario.physical sc) in
      let parent = canonical (Scenario.of_physical g prefix) in
      let st = Reconfig.fail parent (Scenario.of_physical g [ last ]) in
      Scenario.Tbl.add memo sc st;
      st
  in
  (* The failed set a belief vector over physical representatives names. *)
  let believed beliefs =
    let reps = ref [] in
    for e = m - 1 downto 0 do
      if beliefs.(e) then reps := e :: !reps
    done;
    Scenario.of_physical g !reps
  in
  (* Per-router protocol state. *)
  let seen = Array.make_matrix n m 0 in
  let belief = Array.make_matrix n m false in
  let view = Array.make n root in
  let fib = ref (if fibs then Some (Fib.of_protection g root.Reconfig.protection) else None) in
  (* Convergence accounting: event i is converged once every router has
     accepted some version >= i+1 for its link. *)
  let events_by_link = Array.make m [] in
  for i = ne - 1 downto 0 do
    events_by_link.(events.(i).link) <- i :: events_by_link.(events.(i).link)
  done;
  let pending = Array.make ne n in
  let convergence = Array.make ne nan in
  (* Data-plane state: a physical event takes effect on traffic when the
     canonical direction's head router accepts it. Its MLU and delivered
     fraction depend on the failed set alone, so they are memoized per
     set beside the canonical states: the data plane revisits few sets. *)
  let dp_belief = Array.make m false in
  let dp_state = ref root in
  let dp_memo = Scenario.Tbl.create 64 in
  let peak = ref (Reconfig.mlu root) in
  let min_delivered = ref (Reconfig.delivered_fraction root) in
  let violation_start = ref (if !peak > mlu_bound then Some 0.0 else None) in
  let violations = ref [] in
  let observe_dp now sc =
    let u, d =
      match Scenario.Tbl.find_opt dp_memo sc with
      | Some ud -> ud
      | None ->
        let ud = (Reconfig.mlu !dp_state, Reconfig.delivered_fraction !dp_state) in
        Scenario.Tbl.add dp_memo sc ud;
        ud
    in
    if u > !peak then peak := u;
    if d < !min_delivered then min_delivered := d;
    match (!violation_start, u > mlu_bound) with
    | None, true -> violation_start := Some now
    | Some t0, false ->
      violations := (t0, now) :: !violations;
      violation_start := None
    | None, false | Some _, true -> ()
  in
  let stat_stale = ref 0 in
  let last_at = ref 0.0 in
  let nd = Array.length deliveries in
  let digest = run_digest ~channel ~seed ~mlu_bound ~fibs root events in
  let start =
    match resume with
    | None -> 0
    | Some (ck : Checkpoint.t) ->
      if ck.Checkpoint.digest <> digest then
        invalid_arg
          "Online.run_to: checkpoint was recorded for a different run \
           (plan, events, channel or seed differ)";
      if ck.Checkpoint.cursor < 0 || ck.Checkpoint.cursor > nd then
        invalid_arg "Online.run_to: checkpoint cursor out of range";
      let rows_fit a = Array.length a = n && Array.for_all (fun r -> Array.length r = m) a in
      if
        not
          (rows_fit ck.Checkpoint.seen
          && rows_fit ck.Checkpoint.belief
          && Array.length ck.Checkpoint.dp_belief = m
          && Array.length ck.Checkpoint.pending = ne
          && Array.length ck.Checkpoint.convergence = ne)
      then
        invalid_arg
          "Online.run_to: checkpoint state does not fit the run (router, \
           link or event count differs)";
      (* Restore the protocol state, then rebuild everything derived from
         it: router views re-fold through [canonical] (memo repopulates
         from the believed sets), the data-plane state from [dp_belief],
         and FIBs from a fresh rebuild patched per router — exactly what
         the incremental updates of the pre-pause loop left behind, since
         [Fib.update_router] derives a router's entry from the given
         protection alone. *)
      for v = 0 to n - 1 do
        Array.blit ck.Checkpoint.seen.(v) 0 seen.(v) 0 m;
        Array.blit ck.Checkpoint.belief.(v) 0 belief.(v) 0 m;
        view.(v) <- canonical (believed belief.(v))
      done;
      (match !fib with
      | None -> ()
      | Some f0 ->
        let f = ref f0 in
        for v = 0 to n - 1 do
          f := Fib.update_router !f ~router:v view.(v).Reconfig.protection
        done;
        fib := Some !f);
      Array.blit ck.Checkpoint.dp_belief 0 dp_belief 0 m;
      dp_state := canonical (believed dp_belief);
      Array.blit ck.Checkpoint.pending 0 pending 0 ne;
      Array.blit ck.Checkpoint.convergence 0 convergence 0 ne;
      peak := ck.Checkpoint.peak;
      min_delivered := ck.Checkpoint.min_delivered;
      violation_start := ck.Checkpoint.violation_start;
      violations := ck.Checkpoint.violations;
      last_at := ck.Checkpoint.last_at;
      stat_stale := ck.Checkpoint.stale;
      ck.Checkpoint.cursor
  in
  let stop =
    match stop_after with
    | None -> nd
    | Some k ->
      if k < 0 then invalid_arg "Online.run_to: negative stop_after";
      Int.min nd (start + k)
  in
  Trace.with_span "online.deliver" (fun () ->
      for di = start to stop - 1 do
        let d = deliveries.(di) in
        Metrics.incr c_deliveries;
        last_at := d.at;
        let ev = events.(d.ev) in
        let ver = d.ev + 1 in
        let v = d.router in
        let rep = ev.link in
        let prev = seen.(v).(rep) in
        if ver <= prev then incr stat_stale
        else begin
          seen.(v).(rep) <- ver;
          belief.(v).(rep) <- (ev.kind = Fail);
          (* Credit every event on this link whose version the acceptance
             covers (a newer notification subsumes the older ones a lossy
             channel may never deliver to this router). *)
          List.iter
            (fun j ->
              let vj = j + 1 in
              if vj > prev && vj <= ver && pending.(j) > 0 then begin
                pending.(j) <- pending.(j) - 1;
                if pending.(j) = 0 then convergence.(j) <- d.at -. events.(j).at_ms
              end)
            events_by_link.(rep);
          view.(v) <- canonical (believed belief.(v));
          (match !fib with
          | Some f ->
            fib := Some (Fib.update_router f ~router:v view.(v).Reconfig.protection)
          | None -> ());
          if v = G.src g rep then begin
            dp_belief.(rep) <- (ev.kind = Fail);
            let sc = believed dp_belief in
            dp_state := canonical sc;
            observe_dp d.at sc
          end
        end
      done);
  if stop < nd then
    `Paused
      Checkpoint.
        {
          digest;
          cursor = stop;
          stale = !stat_stale;
          seen = Array.map Array.copy seen;
          belief = Array.map Array.copy belief;
          dp_belief = Array.copy dp_belief;
          pending = Array.copy pending;
          convergence = Array.copy convergence;
          peak = !peak;
          min_delivered = !min_delivered;
          violation_start = !violation_start;
          violations = !violations;
          last_at = !last_at;
        }
  else begin
  (match !violation_start with
  | Some t0 when !last_at > t0 -> violations := (t0, !last_at) :: !violations
  | _ -> ());
  Metrics.add c_stale !stat_stale;
  Metrics.add c_drops stat_drops;
  Metrics.add c_retries stat_retries;
  let final_sc = if ne = 0 then Scenario.of_physical g [] else scenario_after.(ne - 1) in
  let terminal = canonical final_sc in
  let order_independent, fib_consistent =
    Trace.with_span "online.verify" @@ fun () ->
    (* Quiescence: the terminal scenario is the true final failed set; the
       reference is an independent one-shot batch application from the root,
       so the memoized prefix recursion is itself under test. *)
    let batch = Reconfig.fail root final_sc in
    let order_independent =
      Reconfig.states_bit_identical terminal batch
      && Array.for_all (fun v -> Reconfig.states_bit_identical v batch) view
    in
    let fib_consistent =
      match !fib with
      | None -> true
      | Some f -> Fib.equal f (Fib.of_protection g batch.Reconfig.protection)
    in
    (order_independent, fib_consistent)
  in
  let quiescent_mlu = Reconfig.mlu terminal in
  Metrics.set_gauge g_quiescent quiescent_mlu;
  let distinct_states = Scenario.Tbl.length memo in
  Metrics.add c_states distinct_states;
  Trace.add_attr "events" (Trace.Int ne);
  Trace.add_attr "deliveries" (Trace.Int (Array.length deliveries));
  Trace.add_attr "states" (Trace.Int distinct_states);
  `Done
    {
      terminal;
      order_independent;
      fib_consistent;
      quiescent_mlu;
      stats =
        {
          events = ne;
          deliveries = Array.length deliveries;
          stale = !stat_stale;
          drops = stat_drops;
          retries = stat_retries;
          distinct_states;
          convergence_ms = convergence;
          transient_mlu_peak = !peak;
          min_delivered = !min_delivered;
          violation_windows = List.rev !violations;
        };
    }
  end

let run ?channel ?seed ?mlu_bound ?fibs root events =
  match run_to ?channel ?seed ?mlu_bound ?fibs root events with
  | `Done outcome -> outcome
  | `Paused _ -> assert false (* no stop_after: the loop runs to the end *)
