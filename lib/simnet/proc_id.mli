(** Process addressing.

    Portals is connectionless: a peer is named by a (node id, process id)
    pair, never by a connection. Node ids identify a physical node on the
    fabric; process ids distinguish the processes sharing that node (the
    Paragon/ASCI-Red heritage of multiple communicating processes per
    node, §2 of the paper). *)

type nid = int
(** Node identifier. *)

type pid = int
(** Process identifier, unique within a node. *)

type t = { nid : nid; pid : pid }
(** A fabric-wide process address. *)

val make : nid:nid -> pid:pid -> t
(** [make ~nid ~pid] is the address of process [pid] on node [nid].
    Raises [Invalid_argument] on negative components. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order: by node id, then process id. *)

val pp : Format.formatter -> t -> unit
(** Prints ["nid:pid"], e.g. ["3:0"]. *)

val to_string : t -> string
(** {!pp} as a string. *)

(** Tables keyed by an ordered (src, dst) pair of addresses: the one
    container for per-pair state (reliability windows, FIFO floors,
    fault streams, drop counters). Keys compare field by field, so
    addresses that differ only in [pid] stay distinct, and a lookup
    allocates nothing. *)
module Pair_tbl : sig
  type 'a tbl

  val create : int -> 'a tbl
  (** An empty table sized for about [n] pairs; it grows as needed. *)

  val find : 'a tbl -> t -> t -> 'a
  (** [find tbl src dst]. Raises [Not_found] if the pair is absent. *)

  val add : 'a tbl -> t -> t -> 'a -> unit
  (** Bind a pair that is not yet in the table. *)

  val filter_inplace : (t -> t -> 'a -> bool) -> 'a tbl -> unit
  (** Keep the bindings for which the predicate holds. *)

  val fold : (t -> t -> 'a -> 'b -> 'b) -> 'a tbl -> 'b -> 'b
  (** Fold over every binding, in no specified order. *)
end
