(** Matching in the MPI library: the half of MPICH/GM and the ibverbs
    stack of Liu et al. that Portals runs in the NI instead.

    The library matches envelopes against posted receives, buffers
    unexpected messages in {!Mpi_core}'s queue, and keeps the RTS/CTS
    rendezvous state — and all of it advances only inside library calls
    (§5.2's progress argument; the flat MPICH/GM curve of Figure 6).
    {!Mpi_gm} and {!Mpi_ibverbs} each keep one ['k t] in their state and
    feed it what their device delivers; ['k] is what a granted
    rendezvous keeps until its data arrives (an rkey on ibverbs,
    [unit] on GM). *)

type 'k t

val create : unit -> 'k t

val post : 'k t -> Mpi_core.request -> unit
(** Queue a receive, in posting order. *)

val on_eager :
  Mpi_core.t -> 'k t -> Envelope.t -> bytes -> off:int -> len:int -> unit
(** An eager message arrived: deliver it to the first matching posted
    receive, or copy it into the unexpected queue (the stack may reuse
    [bytes] once this returns). *)

val on_rts : Mpi_core.t -> 'k t -> Envelope.t -> cookie:int -> total:int -> unit
(** A rendezvous header arrived: grant it to the first matching posted
    receive ({!Mpi_core.grant}), or queue it as unexpected. *)

val await_cts : 'k t -> Mpi_core.request -> cookie:int -> unit
(** A rendezvous send waits for its clear-to-send. *)

val cts : 'k t -> int -> Mpi_core.request option
(** The send a clear-to-send for [cookie] releases, removed. *)

val await_data : 'k t -> Mpi_core.request -> Envelope.t -> cookie:int -> 'k -> unit
(** A granted receive waits for its data, landing at the key. *)

val data : 'k t -> int -> (Mpi_core.request * Envelope.t * 'k) option
(** The granted receive the data for [cookie] completes, removed. *)

val drop_peer : 'k t -> release:('k -> unit) -> int -> unit
(** Rank [r] crashed: fail the posted receives pinned to it, the sends
    waiting for its clear-to-send and the receives waiting for its data,
    releasing their landing keys. *)
