(** Frames of the RTS/CTS packetization module (§3).

    The kernel-module transport speaks its own framing {e below} Portals:
    small messages travel as a single [Eager] frame; large messages open
    with a request-to-send, wait for a clear-to-send granting kernel
    buffer space, then stream MTU-sized [Data] frames that are reassembled
    at the receiver. *)

type kind =
  | Eager  (** Complete small message. *)
  | Rts  (** Request to send [total_len] bytes. *)
  | Cts  (** Receiver grants the transfer. *)
  | Data  (** One packet of a granted transfer. *)

val kind_to_string : kind -> string

type t = {
  kind : kind;
  msg_id : int;  (** Sender-assigned, unique per (src, dst) pair. *)
  total_len : int;  (** Full message length (all kinds). *)
  offset : int;  (** Position of the payload within the message (Data). *)
  payload : bytes;
  pay_off : int;
  pay_len : int;
      (** The frame's message bytes are
          [payload.[pay_off .. pay_off+pay_len-1]] (Eager, Data; empty
          for Rts and Cts): a view, so a sender frames a slice of its
          buffer and a receiver reads a slice of the frame without
          either copying it first. *)
}

val header_size : int

val encode : t -> Simnet.Frame.t
(** A fresh {!header_size}-byte header plus a view of the payload slice:
    the payload is not copied. *)

val decode : Simnet.Frame.t -> (t, string) result
(** Decode the header; the result's payload is the frame's view (or,
    for a frame whose header is not exactly {!header_size} bytes — a
    damaged one — a copy of the bytes past the header). *)
