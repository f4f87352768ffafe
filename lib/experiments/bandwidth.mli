(** Streaming bandwidth vs message size (§3's packet-pipelining claim:
    "all of these memory copies are overlapping, so we are able to
    achieve reasonable bandwidth due to packet pipelining").

    A one-way stream of [count] back-to-back puts per size; bandwidth is
    payload bytes over the span from first injection to last delivery.
    The kernel (RTS/CTS) path must stay close to min(copy, wire)
    bandwidth at large sizes — not collapse to the serial sum — while the
    NIC-offload path tracks the wire. *)

type row = { size : int; mb_per_s : float }

type t = { placement : string; rows : row list }

val default_sizes : int list

val run_one :
  ?scenario:Runtime.Scenario.t ->
  ?sizes:int list -> ?count:int -> Runtime.transport_kind -> t
(** Default 16 messages per size, sizes 1 KB .. 1 MB. *)

val run :
  ?scenario:Runtime.Scenario.t -> ?sizes:int list -> ?count:int -> unit ->
  t list

val pp : Format.formatter -> t list -> unit
