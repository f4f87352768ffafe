(** MPI message envelopes for every stack.

    {b Portals backend} — the envelope is packed into the 64 match bits
    (§4.4's flexibility argument: "the Portals API provides the
    flexibility needed for an efficient implementation of the send/receive
    operations in MPI"):

    {v
    bits 63..62  protocol (0 = eager, 1 = rendezvous header)
    bits 61..48  context id (communicator)
    bits 47..32  source rank
    bits 31..0   tag
    v}

    Wildcard receives ([MPI_ANY_SOURCE]/[MPI_ANY_TAG]) become ignore-bit
    masks over the corresponding fields. The match-bits codec itself
    lives in [Mpi_portals] — it is that adapter's private contract with
    the Portals NI; this module only defines the envelope and the
    stack-neutral framings.

    {b GM and ibverbs} — neither wire matches, so the same envelope
    travels as an explicit header in front of the payload (GM framing,
    ibverbs channel framing below), and matching happens in the MPI
    library, [Mpi_libmatch] (the very fact Figure 6 measures). *)

exception Peer_failed of int
(** Raised (with the peer's rank) by any backend when an operation
    cannot complete because the peer's node crashed: a blocked wait on a
    receive from the failed rank, a rendezvous send whose partner died
    mid-handshake, or (connection-oriented backends only) new traffic
    toward a peer that has not been {!Mpi.reconnect}ed. Defined once,
    here, so every stack raises the same one. *)

val any_source : int
(** -1: matches any sender. *)

val any_tag : int
(** -1: matches any tag. *)

val max_tag : int
(** [2^31 - 1]: tags are [0 .. max_tag]. *)

val max_rank : int
val max_context : int
(** [2^14 - 1]: contexts are [0 .. max_context]. *)

type protocol = Eager | Rendezvous

type t = { protocol : protocol; context : int; src_rank : int; tag : int }

val matches : ?context:int -> t -> source:int -> tag:int -> bool
(** Library-side matching ([Mpi_core]'s unexpected queue,
    [Mpi_libmatch]'s posted queue):
    [source]/[tag]
    may be wildcards, the context (default 0, the world) must agree; the
    protocol field is not part of MPI matching. *)

(** {1 Rendezvous header payload (Portals backend)} *)

val rdvz_header_size : int
(** 16: cookie and total length, 64 bits each. *)

val encode_rdvz_header : cookie:int -> total_len:int -> bytes
val decode_rdvz_header : bytes -> off:int -> (int * int, string) result

(** {1 GM framing} *)

type gm_message =
  | Gm_eager of { env : t; payload : bytes; pay_off : int; pay_len : int }
      (** The message bytes are [payload.[pay_off .. pay_off+pay_len-1]]. *)
  | Gm_rts of { env : t; cookie : int; total_len : int }
      (** "I have [total_len] bytes for this envelope; pull when matched." *)
  | Gm_cts of { cookie : int }
      (** "Matched; send the data for [cookie]." *)
  | Gm_data of { cookie : int; payload : bytes; pay_off : int; pay_len : int }

val gm_header_size : int

val encode_gm : gm_message -> bytes
(** A fresh wire image: header and payload slice in one buffer, the
    payload copied once. *)

val decode_gm : bytes -> len:int -> (gm_message, string) result
(** Decode the message in the first [len] bytes of [buf] {e in place}:
    a decoded [Gm_eager]/[Gm_data] views [buf] itself
    ([pay_off = gm_header_size], [pay_len = len - gm_header_size]), so
    the receiver blits its payload straight out of the receive token.
    A caller that keeps the payload past the token's reuse must copy
    it. *)

(** {1 ibverbs channel framing}

    Control and eager messages travelling inside ring-buffer slots of
    the ibverbs-style backend (Liu et al.'s channel design): eager data,
    the RTS/CTS-with-buffer-address rendezvous handshake and the FIN
    that completes an RDMA-write rendezvous. Encoders write in place
    into the sender's staging buffer (which is then RDMA-written as one
    unit); the decoder returns a {e view} into the ring slot so eager
    payloads are blitted at most once. *)

type iv_view =
  | Iv_eager of { env : t; pay_off : int; pay_len : int }
      (** Payload bytes live at [pay_off..pay_off+pay_len-1] of the
          decoded buffer. *)
  | Iv_rts of { env : t; cookie : int; total_len : int }
      (** "I have [total_len] bytes; reply with a landing address." *)
  | Iv_cts of { cookie : int; rkey : int; len : int }
      (** "RDMA-write up to [len] bytes into my region [rkey]." *)
  | Iv_fin of { cookie : int; length : int }
      (** "The write for [cookie] is on the wire; [length] bytes." *)

val iv_header_size : int

val encode_iv_eager :
  bytes -> off:int -> env:t -> payload:bytes -> pay_off:int -> pay_len:int -> int
(** Writes header and payload at [off]; returns bytes written. *)

val encode_iv_rts : bytes -> off:int -> env:t -> cookie:int -> total_len:int -> int
val encode_iv_cts : bytes -> off:int -> cookie:int -> rkey:int -> len:int -> int
val encode_iv_fin : bytes -> off:int -> cookie:int -> length:int -> int

val decode_iv : bytes -> off:int -> len:int -> (iv_view, string) result
(** Decode the message occupying [len] bytes at [off]. *)
