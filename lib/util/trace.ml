(* Lightweight span tracing with a bounded ring-buffer collector.

   A span is one timed region ("lp.solve", "offline.oracle", ...) with
   optional attributes. Spans nest lexically per domain: [with_span]
   maintains a domain-local stack, so a span records its depth and its
   parent's name without any cross-domain coordination. Completed spans
   land in one global ring buffer (mutex-guarded; appends happen at span
   exit, so the lock is taken per span, not per event — spans are
   per-solve/per-round granularity, never per-pivot).

   The ring keeps the most recent [capacity] spans; [dropped] counts the
   overwritten ones so exports are honest about truncation. Beside the
   ring, a per-name (count, seconds) table takes every span, so [summary]
   loses nothing to the wrap-around. *)

type attr =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type span = {
  name : string;
  attrs : (string * attr) list;
  start : float;  (* Unix.gettimeofday at entry *)
  duration : float;  (* seconds *)
  domain : int;
  depth : int;  (* 0 = top-level within its domain *)
  parent : string option;  (* name of the lexically enclosing span *)
  seq : int;  (* global completion order *)
}

let enabled_flag = Atomic.make true

let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* ---- ring buffer ---- *)

let default_capacity = 8192

type ring = {
  mutable slots : span option array;
  mutable next : int;  (* total spans ever recorded *)
  totals : (string, int * float) Hashtbl.t;  (* per name, every span *)
}

let ring =
  { slots = Array.make default_capacity None; next = 0; totals = Hashtbl.create 32 }
let ring_mutex = Mutex.create ()

let with_ring f =
  Mutex.lock ring_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock ring_mutex) f

let set_capacity cap =
  if cap < 1 then invalid_arg "Trace.set_capacity";
  with_ring (fun () ->
      ring.slots <- Array.make cap None;
      ring.next <- 0;
      Hashtbl.reset ring.totals)

let reset () =
  with_ring (fun () ->
      Array.fill ring.slots 0 (Array.length ring.slots) None;
      ring.next <- 0;
      Hashtbl.reset ring.totals)

let record span =
  with_ring (fun () ->
      let cap = Array.length ring.slots in
      let seq = ring.next in
      ring.slots.(seq mod cap) <- Some { span with seq };
      ring.next <- seq + 1;
      let c, t = Option.value (Hashtbl.find_opt ring.totals span.name) ~default:(0, 0.0) in
      Hashtbl.replace ring.totals span.name (c + 1, t +. span.duration))

let recorded () = with_ring (fun () -> ring.next)

let dropped () =
  with_ring (fun () -> Int.max 0 (ring.next - Array.length ring.slots))

(* Retained spans, oldest first. *)
let spans () =
  with_ring (fun () ->
      let cap = Array.length ring.slots in
      let lo = Int.max 0 (ring.next - cap) in
      List.init (ring.next - lo) (fun i ->
          Option.get ring.slots.((lo + i) mod cap)))

(* ---- the span stack ---- *)

(* Domain-local stack of (name, pending-attrs ref) for the open spans. *)
type open_span = { o_name : string; mutable o_attrs : (string * attr) list }

let stack_key : open_span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let with_span ?(attrs = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let parent = match !stack with [] -> None | p :: _ -> Some p.o_name in
    let depth = List.length !stack in
    let o = { o_name = name; o_attrs = attrs } in
    stack := o :: !stack;
    let t0 = Unix.gettimeofday () in
    let finally () =
      (* clamp: gettimeofday is not monotonic; an NTP step mid-span must
         not record a negative duration. *)
      let dt = Float.max 0.0 (Unix.gettimeofday () -. t0) in
      (stack := match !stack with _ :: rest -> rest | [] -> []);
      record
        {
          name;
          attrs = List.rev o.o_attrs;
          start = t0;
          duration = dt;
          domain = (Domain.self () :> int);
          depth;
          parent;
          seq = 0;
        }
    in
    Fun.protect ~finally f
  end

(* Attach an attribute to the innermost open span (no-op outside one). *)
let add_attr key value =
  if Atomic.get enabled_flag then begin
    let stack = Domain.DLS.get stack_key in
    match !stack with
    | [] -> ()
    | o :: _ -> o.o_attrs <- (key, value) :: o.o_attrs
  end

(* ---- export ---- *)

let attr_to_json = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | String s -> Json.String s
  | Bool b -> Json.Bool b

let span_to_json s =
  Json.Obj
    ([
       ("name", Json.String s.name);
       ("seq", Json.Int s.seq);
       ("start", Json.Float s.start);
       ("duration_s", Json.Float s.duration);
       ("domain", Json.Int s.domain);
       ("depth", Json.Int s.depth);
     ]
    @ (match s.parent with
      | Some p -> [ ("parent", Json.String p) ]
      | None -> [])
    @
    match s.attrs with
    | [] -> []
    | attrs ->
      [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, attr_to_json v)) attrs)) ])

let to_json () =
  Json.Obj
    [
      ("recorded", Json.Int (recorded ()));
      ("dropped", Json.Int (dropped ()));
      ("spans", Json.List (List.map span_to_json (spans ())));
    ]

(* One span per line — the streaming-friendly form. *)
let export_ndjson path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (Json.to_string (span_to_json s));
          output_char oc '\n')
        (spans ()))

(* Per span name: (count, total seconds) over every span since the last
   reset, sorted by total time descending — the "where did the wall time
   go" report. *)
let summary () =
  with_ring (fun () ->
      Hashtbl.fold (fun name (c, t) acc -> (name, c, t) :: acc) ring.totals [])
  |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
