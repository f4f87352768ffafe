(** Wire format of the Portals message types (§4.6, Tables 1–4, plus the
    atomic extension).

    {ul
    {- {b Put request} (Table 1): operation, initiator, target, portal
       index, cookie, match bits, offset, the initiator's memory-descriptor
       handle ("transmitted even though this value cannot be interpreted by
       the target" — it routes the acknowledgment), length, and data. A
       flag signifies that no acknowledgment is requested.}
    {- {b Acknowledgment} (Table 2): the put request echoed with initiator
       and target swapped; the only new information is the manipulated
       length. Carries the event-queue handle so the initiator-side
       runtime "only needs to confirm that the event queue still exists"
       (§4.8).}
    {- {b Get request} (Table 3): like a put request without data, and
       {e without} an event queue handle — the reply routes through the
       memory descriptor, which must stay linked until the reply arrives.}
    {- {b Reply} (Table 4): the get request echoed with the pair swapped,
       plus manipulated length and the data.}
    {- {b Atomic request} (beyond the paper's tables; the foMPI-style
       one-sided extension): a get request carrying an atomic opcode
       ({!aop}) plus a 64-bit operand and compare value in a 17-byte
       extension block after the header. The target NI reads, modifies and
       writes the matched 64-bit word at match time — application bypass
       (§5.1) extended to read-modify-write.}
    {- {b Atomic reply}: the atomic request echoed with the pair swapped;
       the operand slot carries the word's pre-operation (fetched) value,
       so no payload is needed. Routes through the memory descriptor like
       a get reply.}}

    Beyond the paper's tables, every message carries the sender node's
    monotonic {e incarnation} number so a receiver can fence traffic from a
    sender's previous life after a crash–restart (the connectionless
    analogue of tearing down a stale connection; see [Ni]).

    The encoding is little-endian with a fixed 72-byte header, an optional
    17-byte atomic extension block, then payload. Decoding validates
    magic, version, operation, atomic opcode and lengths so a corrupt
    message surfaces as an error, not an exception.

    {b Integrity.} Every encoder and decoder takes [~integrity], the bit
    of the fabric the frame crosses ({!Simnet.Fabric.integrity}). With
    [~integrity:true] the encoder emits version-[0x31] frames: the
    version-[0x30] image plus a 4-byte {!Simnet.Crc32c} trailer over
    header, extension block and payload. Decoders verify the trailer
    ({!decode_error.Bad_checksum}) and, with [~integrity:true], reject
    unprotected [0x30] frames so a bit flip in the version byte cannot
    downgrade a frame out of coverage. With [~integrity:false] the
    format is byte-identical to the pre-integrity encoding. *)

type op =
  | Put_request
  | Ack
  | Get_request
  | Reply
  | Atomic_request
  | Atomic_reply

val op_to_string : op -> string
val pp_op : Format.formatter -> op -> unit

type aop =
  | Fetch_add  (** Deposit [old + operand]; fetch [old]. *)
  | Swap  (** Deposit [operand]; fetch [old]. *)
  | Cas
      (** Deposit [operand] iff [old = compare], else leave unchanged;
          fetch [old] either way (success is [fetched = compare]). *)

val aop_to_string : aop -> string
val pp_aop : Format.formatter -> aop -> unit
val all_aops : aop list

type atomic = {
  aop : aop;
  operand : int64;
      (** Request: addend / new value. Reply: the fetched value. *)
  compare : int64;  (** CAS expected value; 0 for other opcodes. *)
}

type t = {
  op : op;
  ack_requested : bool;  (** Put requests only; false elsewhere. *)
  triggered : bool;
      (** Provenance bit (bit 1 of the flags byte): the message was fired
          by a pre-armed triggered chain on the initiator's NI rather
          than by a host fiber. Targets log such deposits as
          {!Event.kind.Triggered} instead of [Put], making NIC-resident
          forwarding wire-visible. Untriggered frames stay byte-identical
          to the pre-extension format. *)
  initiator : Simnet.Proc_id.t;
  target : Simnet.Proc_id.t;
  portal_index : int;
  cookie : int;  (** Access control entry index (§4.5). *)
  match_bits : Match_bits.t;
  offset : int;
  md_handle : Handle.md;
      (** Initiator-side MD: for the ack (put) or the reply (get/atomic). *)
  eq_handle : Handle.eq;
      (** Initiator-side EQ for the ack event; {!Handle.none} on get and
          atomic requests and on replies. *)
  incarnation : int;
      (** Sender node's incarnation at send time (0 until a restart). *)
  length : int;
      (** Requested length; manipulated length in ack/reply; the operated
          word width (8) on atomic messages. *)
  data : bytes;  (** Payload (put request and reply); else empty. *)
  atomic : atomic option;  (** Present iff [op] is atomic. *)
}

val header_size : int

val atomic_block_size : int
(** Size of the atomic extension block that follows the header on atomic
    messages: 1 opcode byte + 8 operand bytes + 8 compare bytes. *)

val atomic_word_size : int
(** Width in bytes of the word atomics operate on (8). *)

val atomic_operand_offset : int
(** Where an atomic message's operand slot starts in its wire image, so
    in the [data] of a {!decode_view}: the fetched value of a reply. *)

val checksum_size : int
(** Size of the CRC-32C trailer a version-[0x31] frame carries (4). *)

val put_request :
  ?ack_requested:bool ->
  ?triggered:bool ->
  ?incarnation:int ->
  initiator:Simnet.Proc_id.t ->
  target:Simnet.Proc_id.t ->
  portal_index:int ->
  cookie:int ->
  match_bits:Match_bits.t ->
  offset:int ->
  md_handle:Handle.md ->
  eq_handle:Handle.eq ->
  data:bytes ->
  unit ->
  t

val ack_of_put : ?incarnation:int -> t -> mlength:int -> t
(** Build the acknowledgment for a put request: fields echoed, initiator
    and target swapped, data dropped, length replaced by [mlength].
    [incarnation] (default: echo the request's) stamps the responder's own
    incarnation. Raises [Invalid_argument] on a non-put message. *)

val get_request :
  ?incarnation:int ->
  initiator:Simnet.Proc_id.t ->
  target:Simnet.Proc_id.t ->
  portal_index:int ->
  cookie:int ->
  match_bits:Match_bits.t ->
  offset:int ->
  md_handle:Handle.md ->
  rlength:int ->
  unit ->
  t

val reply_of_get : ?incarnation:int -> t -> mlength:int -> data:bytes -> t
(** Build the reply for a get request: fields echoed, pair swapped, data
    attached. [incarnation] as in {!ack_of_put}. Raises
    [Invalid_argument] on a non-get message. *)

val atomic_request :
  ?incarnation:int ->
  aop:aop ->
  operand:int64 ->
  ?compare:int64 ->
  initiator:Simnet.Proc_id.t ->
  target:Simnet.Proc_id.t ->
  portal_index:int ->
  cookie:int ->
  match_bits:Match_bits.t ->
  offset:int ->
  md_handle:Handle.md ->
  unit ->
  t
(** An atomic request on the 64-bit word at [offset] in the matched
    region. [compare] (default [0L]) only matters for {!Cas}. Like a get
    request it carries no event-queue handle: the fetched-value reply
    routes through [md_handle]. [length] is fixed at
    {!atomic_word_size}. *)

val atomic_reply_of_request : ?incarnation:int -> t -> fetched:int64 -> t
(** Build the fetched-value reply for an atomic request: fields echoed,
    pair swapped, [fetched] placed in the operand slot. [incarnation] as
    in {!ack_of_put}. Raises [Invalid_argument] on a non-atomic-request
    message. *)

val fetched_value : t -> int64 option
(** The fetched value of an atomic reply; [None] on any other message. *)

val encode : integrity:bool -> t -> bytes
(** Raises [Invalid_argument] when [op] and [atomic] disagree — an
    atomic operation without its extension block, or a block attached to
    an operation whose frame has no room for one (it would overwrite the
    start of the payload). *)

val image :
  integrity:bool ->
  op ->
  ack_requested:bool ->
  triggered:bool ->
  initiator:Simnet.Proc_id.t ->
  target:Simnet.Proc_id.t ->
  portal_index:int ->
  cookie:int ->
  match_bits:Match_bits.t ->
  offset:int ->
  md_handle:Handle.md ->
  eq_handle:Handle.eq ->
  incarnation:int ->
  length:int ->
  bytes
(** The wire image of a message given by its fields, with no {!t} in
    between: allocates the frame (header, the atomic block of an atomic
    [op], [length] payload bytes when [op] carries data, the CRC trailer
    when [integrity]) and writes the header through the same writer as
    {!encode}. The caller then writes the payload at {!header_size} or
    the atomic block ({!write_atomic}), and finishes with {!seal}. This is
    how initiators blit payload straight from MD memory into the image. *)

val write_atomic : bytes -> aop -> operand:int64 -> compare:int64 -> unit
(** Write the atomic extension block of an {!image}. *)

val seal : integrity:bool -> bytes -> unit
(** Finish an {!image} once its body is written: with [integrity], mark
    it version [0x31] and write the CRC-32C trailer; otherwise nothing. *)

type decode_error =
  | Bad_magic
  | Bad_version of int
      (** Unknown version byte — or an unprotected [0x30] frame decoded
          with [~integrity:true]. *)
  | Bad_operation of int
  | Bad_atomic_op of int
      (** An atomic message whose extension block carries an opcode
          outside {!all_aops}. *)
  | Truncated of { expected : int; got : int }
  | Bad_checksum of { expected : int; got : int }
      (** The CRC-32C trailer of a version-[0x31] frame does not match
          the bytes ([expected] computed, [got] stored) — in-flight
          corruption. NIs count these under the [Checksum_failed] drop
          reason (§4.8). *)

val pp_decode_error : Format.formatter -> decode_error -> unit

val decode_view :
  integrity:bool ->
  src:Simnet.Proc_id.t ->
  dst:Simnet.Proc_id.t ->
  bytes ->
  (t, decode_error) result
(** Decode a wire image without copying its payload: the returned [data]
    is the {e whole} wire image, with a put request's or reply's payload
    bytes at [\[header_size, header_size + length)]. The receive hot path uses
    this to blit payload straight into the matched memory descriptor.
    (Atomic messages carry no payload, so the extension block never
    shifts a viewed payload.) Do not re-{!encode} a viewed message.

    [src] and [dst] are the addresses the image travelled between, as
    the fabric knows them. When the header names the same processes, the
    decoded [initiator] and [target] are those values rather than fresh
    copies; any address is correct here, a different one only costs an
    allocation. *)

val field_inventory : op -> (string * string) list
(** The (field, description) rows of the paper's corresponding table —
    what this implementation actually places on the wire. Tables 1–4 for
    the paper's four operations; the atomic request/reply inventories
    extend the set in the paper's format. Used by the bench harness to
    regenerate the tables. *)

val pp : Format.formatter -> t -> unit
