(** Object handles and generation-checked handle tables.

    The Portals API never exposes pointers: memory descriptors, match
    entries and event queues are referred to by handles, and handles
    travel on the wire (a put request carries the initiator's MD handle so
    the acknowledgment can route back to it, Table 1). A handle is an index
    plus a generation counter; resolving a stale handle — the object was
    unlinked and its slot reused — fails cleanly, which is exactly the
    "memory descriptor identified in the request doesn't exist" check of
    §4.8.

    Handles are {e kinded} by a phantom parameter: {!eq}, {!md} and {!me}
    are incompatible types, so passing an event-queue handle where a
    memory-descriptor handle is expected is a compile-time error rather
    than a runtime [Invalid_md]. The representation is unchanged — the
    phantom erases at runtime and on the wire. *)

type eq_kind
type md_kind
type me_kind
type ct_kind

type +'k t [@@immediate]
(** An opaque handle of kind ['k]. Its representation is one immediate
    integer (the slot index in the low 32 bits, the generation in the 31
    bits above), so making, storing, comparing and encoding a handle
    allocates nothing. Each table still checks generations, so a forged
    or stale handle resolves as invalid. *)

type eq = eq_kind t
(** Event queue handles ([PtlEQAlloc]). *)

type md = md_kind t
(** Memory descriptor handles ([PtlMDBind]/[PtlMDAttach]). *)

type me = me_kind t
(** Match entry handles ([PtlMEAttach]/[PtlMEInsert]). *)

type ct = ct_kind t
(** Counting-event handles ([PtlCTAlloc]-style). Counters are the
    triggered-operation extension: a counter attached to a match entry is
    bumped by the NI at match time, and chains armed with {!Ni.ct_arm}
    fire when it crosses their threshold — without a host fiber. *)

val none : 'k t
(** The distinguished null handle ([PTL_HANDLE_NONE]): never resolves. *)

val is_none : 'k t -> bool
val equal : 'k t -> 'k t -> bool

val to_wire : 'k t -> int
(** The integer a handle travels as: the same packing, 32 bits of index
    and 31 of generation, written as a 64-bit little-endian field
    (sign-extended, so {!none} is all-ones). The kind does not travel. *)

val of_wire : int -> 'k t
(** The handle a wire field names. Resolving it still checks the
    generation, so a forged or stale value never finds an object. *)

module Table : sig
  (** A slot table with free-list reuse and per-slot generations,
      producing handles of a fixed kind. *)

  type 'k handle := 'k t
  type ('k, 'a) t

  val create : unit -> ('k, 'a) t
  (** An empty table; its first {!alloc} makes 16 slots, and each later
      growth doubles them. *)

  val alloc : ('k, 'a) t -> 'a -> 'k handle
  (** Store a value, returning its handle. The table grows as needed. *)

  val find : ('k, 'a) t -> 'k handle -> 'a option
  (** [None] if the handle is null, stale, or out of range. *)

  val free : ('k, 'a) t -> 'k handle -> bool
  (** Release a slot; subsequent {!find}s of the same handle fail. Returns
      false if the handle did not resolve. *)

  val live_count : ('k, 'a) t -> int

  val iter : ('k, 'a) t -> ('k handle -> 'a -> unit) -> unit
  (** Visit every live entry. *)
end
