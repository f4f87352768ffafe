(** Wire framing of the reliability protocol.

    Every message crossing a fabric with the reliability shim installed is
    wrapped in one of these frames — the upper layers' payloads travel
    inside [Data]; [Ack] frames are generated by the shim itself and never
    surface above it. The shim sends them with
    [Simnet.Fabric.send_framed], so a frame's class never rests on its own
    (corruptible) bytes: whatever reaches the shim is one of its frames,
    and a buffer that does not decode is a damaged one.

    Acknowledgments are cumulative plus selective: [cum_ack] is the
    highest sequence number below which {e everything} has been received
    (so it is [expected - 1]), and bit [i] of [sack] reports possession of
    out-of-order sequence [cum_ack + 1 + i] — a 64-message selective
    window, comfortably beyond the default send window.

    A [Forward] frame moves the receiver past frames its sender abandoned,
    like PR-SCTP's FORWARD-TSN (RFC 3758): every sequence number below
    [upto] is either delivered, buffered, or given up, so the receiver
    delivers what it holds of them and expects [upto] next. [Data] and
    [Ack] frames carry no extra bytes for it.

    {b Integrity.} With [~integrity:true] (the shim passes its fabric's
    [Simnet.Fabric.integrity]), frames carry a CRC-32C trailer
    (distinct kind bytes keep the format self-describing) and
    unprotected frames are rejected at decode, so a corrupted frame
    fails to decode — which the shim treats exactly like loss: no
    acknowledgment, sender retransmits. *)

type t =
  | Data of { seq : int; payload : bytes }
  | Ack of { cum_ack : int; sack : int64 }
  | Forward of { upto : int }

val header_size : int
(** Bytes of framing prepended to a [Data] payload. *)

val checksum_size : int
(** Bytes of CRC-32C trailer appended with [~integrity:true] (4). *)

val encode : integrity:bool -> t -> bytes
val decode : integrity:bool -> bytes -> (t, string) result
(** [Error reason] for a damaged frame: bad magic, truncation, an unknown
    kind, a checksum mismatch, or an unprotected frame decoded with
    [~integrity:true]. *)

val sack_mem : sack:int64 -> cum_ack:int -> int -> bool
(** [sack_mem ~sack ~cum_ack seq] is true if the selective bitmap reports
    [seq] as received. *)

val sack_of_seqs : cum_ack:int -> int list -> int64
(** Build the bitmap advertising the given out-of-order sequences;
    sequences outside [(cum_ack, cum_ack + 64]] are ignored. *)

val pp : Format.formatter -> t -> unit
