(** A message in flight: a small header plus a read-only view of the
    bytes of the layer above.

    A protocol layer that wraps an upper layer's message (the RTS/CTS
    packetizer, the reliability shim) writes only its own header and
    {e views} the bytes it carries instead of copying them into a fresh
    image, so a payload crosses every layer below the one that encoded it
    without another copy. The frame's bytes, as a receiver or a fault
    model sees them, are [hdr] followed by [buf.[off .. off+len-1]]; where
    the header ends is a representation detail no decoder may rely on
    for meaning — every accessor takes positions in that logical byte
    string, whatever the split.

    {b The frame rule.} A frame is immutable once sent: no layer writes
    into a header or a viewed buffer it did not allocate, so a sender
    may hand its image to the fabric, retransmit it, or see it duplicated
    and delivered twice without a copy. Only fault damage writes, and it
    copies first ({!Fault.mutate}): a bit flip copies the part it
    lands in, a truncation just shortens the view.

    A raw message — {!Fabric.send} of plain [bytes] — is the special case
    of an empty header and a whole-buffer view ({!of_bytes}). *)

type t = private {
  hdr : bytes;  (** The frame's own header, owned by the frame. *)
  buf : bytes;  (** The viewed buffer, owned by the layer above. *)
  off : int;
  len : int;  (** The view is [buf.[off .. off+len-1]]. *)
}

val v : hdr:bytes -> bytes -> off:int -> len:int -> t
(** [v ~hdr buf ~off ~len] is [hdr] followed by the view
    [buf.[off .. off+len-1]]. Raises [Invalid_argument] if the view is
    not within [buf]. *)

val of_bytes : bytes -> t
(** The whole buffer, no header. *)

val length : t -> int
(** Header plus view. *)

val to_bytes : t -> bytes
(** The frame's bytes as one buffer: [buf] itself when the frame is
    exactly that buffer — an empty header and a view of all of it (no
    copy; the caller must treat it as read-only) — else a fresh copy. *)

val prefix : t -> int -> bytes
(** [prefix t n] is a buffer whose first [n] bytes are the frame's first
    [n]: its header when the header holds them (no copy — read-only),
    else {!to_bytes}. A decoder reads its fixed fields there: from the
    header it wrote, as sent, or from a flat copy of a frame that damage
    split elsewhere. Raises [Invalid_argument] if [n] is negative or
    beyond {!length}. *)

val after : t -> int -> t
(** [after t n] is the frame without its first [n] bytes — how a layer
    hands up what its header carried. It copies only the part of the
    header that remains, never the view. Raises [Invalid_argument] if [n]
    is negative or beyond {!length}. *)

val crc32c : int -> t -> pos:int -> len:int -> int
(** [crc32c crc t ~pos ~len] extends [crc] ({!Crc32c.update}) over bytes
    [\[pos, pos+len)] of the frame: over the header, then over the view.
    Raises [Invalid_argument] out of range. *)

val flip : t -> bit:int -> t
(** A copy-on-write bit flip: bit [bit mod (length * 8)] of the frame
    flipped in a fresh copy of the header, or of the view, whichever it
    lands in. The original frame is untouched; a zero-length frame is
    returned as is. *)

val truncate : t -> keep:int -> t
(** The first [keep] bytes (clamped to [\[0, length\]]): a shorter view,
    and a shorter copy of the header if the cut falls inside it. *)
