(** Intel NX message passing over Portals.

    §2 of the paper: "Since Portals pre-dated the development of the MPI
    standard, multiple application-level message passing APIs were
    implemented on top of Portals, such as Intel's NX interface and
    nCUBE's Vertex interface." This module is that layering for NX: the
    classic typed send/receive calls of the Paragon's OS, running over
    the same Portals matching engine as the MPI device.

    NX semantics: messages carry a non-negative integer {e type};
    receives select by type, where the selector -1 accepts any type.
    After a receive completes, [infocount]/[infonode]/[infotype] report
    the last message's size, source node and type. Calls are
    fiber-blocking unless prefixed [i]. *)

type t
type msgid

val create :
  Simnet.Transport.t -> ranks:Simnet.Proc_id.t array -> rank:int -> unit -> t

val any_type : int
(** -1: the wildcard type selector. *)

val csend : t -> typ:int -> node:int -> bytes -> unit
(** Blocking typed send ([csend] of NX). *)

val crecv : t -> typesel:int -> bytes -> int
(** Blocking receive into the buffer; returns the received length and
    updates the info registers. *)

val isend : t -> typ:int -> node:int -> bytes -> msgid
val irecv : t -> typesel:int -> bytes -> msgid

val msgdone : t -> msgid -> bool
(** Non-blocking completion test ([msgdone]). *)

val msgwait : t -> msgid -> unit
(** Block until the operation completes ([msgwait]); receives update the
    info registers. *)

val infocount : t -> int
(** Byte count of the last completed receive (-1 before any). *)

val infonode : t -> int
(** Source node of the last completed receive (-1 before any). *)

val infotype : t -> int
(** Type of the last completed receive (-1 before any). *)
