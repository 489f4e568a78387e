(** Directed network graphs with stable link identifiers.

    Nodes and links are dense integer ids. Link ids are {e stable}: failures
    never renumber links — algorithms receive a {!link_set} marking failed
    links instead of a rebuilt graph, mirroring how R3 keeps protection
    routing indexed by the original topology. *)

type node = int
type link = int

type t

(** [create ~node_names ~links] where each entry of [links] is
    [(src, dst, capacity, delay_ms)] describing one directed link.
    Raises [Invalid_argument] on out-of-range endpoints, self-loops,
    nonpositive capacities, or duplicate directed links. *)
val create : node_names:string array -> links:(int * int * float * float) array -> t

val num_nodes : t -> int
val num_links : t -> int

val node_name : t -> node -> string

(** Node id from its name. Raises [Not_found]. *)
val node_id : t -> string -> node

val src : t -> link -> node
val dst : t -> link -> node
val capacity : t -> link -> float
val delay : t -> link -> float

(** Outgoing / incoming link ids of a node (do not mutate). *)
val out_links : t -> node -> link array

val in_links : t -> node -> link array

(** [find_link t a b] is the directed link a->b if present. *)
val find_link : t -> node -> node -> link option

(** The opposite-direction link, if the topology has one. *)
val reverse_link : t -> link -> link option

(** The physical link's representative: the lower id of [e] and its
    reverse, or [e] when it has no reverse. A physical failure takes
    both directions down, and scenarios, online events and fold orders
    name it by this id. *)
val physical_rep : t -> link -> link

(** {2 Failure sets}

    A link set marks failed links by id; the graph itself is immutable. *)

type link_set = bool array

val no_failures : t -> link_set

(** [fail_links t links] marks exactly [links]. *)
val fail_links : t -> link list -> link_set

(** [fail_bidir t links] marks [links] and their reverse directions —
    the physical-failure model used throughout the paper. *)
val fail_bidir : t -> link list -> link_set

val failed_list : link_set -> link list

(** {2 Connectivity} *)

(** [reachable t ?failed a] marks nodes reachable from [a] over live links. *)
val reachable : t -> ?failed:link_set -> node -> bool array

(** True iff every ordered node pair is connected over live links. *)
val strongly_connected : t -> ?failed:link_set -> unit -> bool

(** [partitions_pair t failed a b] is true iff [b] is unreachable from [a]. *)
val partitions_pair : t -> link_set -> node -> node -> bool

(** Sum of capacities, a scale reference for normalization. *)
val total_capacity : t -> float

val pp : Format.formatter -> t -> unit
