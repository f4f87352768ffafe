(** A Portals 3.0 network interface: one process's view of the network.

    Owns the portal table, the access control list, and the handle tables
    for match entries, memory descriptors and event queues. Incoming
    messages are processed exactly as §4.8 prescribes — including every
    documented reason for dropping a message, each with its own counter —
    and outgoing operations follow §4.6/4.7.

    {b Where processing happens.} The interface is bound to a
    {!Simnet.Transport.t}, which decides whether receive-side protocol
    work (matching, data landing) executes on a NIC processor or in the
    host's interrupt context. Either way it runs when the message
    {e arrives}, with no involvement of the application process —
    application bypass (§5.1). State transitions (matching, threshold and
    offset updates) commit at arrival time so back-to-back messages see a
    consistent match list; completion events, acknowledgments and replies
    are emitted after the modelled processing cost.

    {b Threshold accounting.} Target-side put/get operations consume one
    threshold unit of the memory descriptor they use. Initiator-side
    descriptors consume one unit per local completion event (SENT, ACK,
    REPLY), so the canonical MPI pattern — bind an MD with threshold 2 for
    a put expecting SENT then ACK — self-cleans when its traffic
    completes (with [Unlink] policy). *)

type t

type md_region =
  | Flat of { buffer : bytes; length : int option }
  | Iovec of (bytes * int * int) list
      (** Gather/scatter pieces (§7's planned extension). *)
  | Reserved of Md.reservation
      (** Memory created on the first write or read through the
          descriptor ({!Md.reservation}): demand-zero paging, with the
          contents of never-written bytes unspecified as with
          [Bytes.create]. A library reads what landed through {!md_read}.
          Meant for slabs sized for a worst case that may never come —
          §4.1's unexpected-message buffers then cost memory only once a
          message arrives. Descriptors over one reservation share its
          bytes, so re-arming a slab does not recreate them. *)

type md_spec = {
  region : md_region;
  options : Md.options;
  threshold : Md.threshold;
  unlink : Md.unlink_policy;
  eq : Handle.eq;  (** Event queue handle, or {!Handle.none}. *)
  user_ptr : int;
}

val md_spec :
  ?options:Md.options ->
  ?threshold:Md.threshold ->
  ?unlink:Md.unlink_policy ->
  ?eq:Handle.eq ->
  ?user_ptr:int ->
  ?length:int ->
  bytes ->
  md_spec
(** Spec with the {!Md.default_options}, infinite threshold, [Retain];
    [length] restricts the descriptor to a prefix of the buffer. *)

val md_spec_iovec :
  ?options:Md.options ->
  ?threshold:Md.threshold ->
  ?unlink:Md.unlink_policy ->
  ?eq:Handle.eq ->
  ?user_ptr:int ->
  (bytes * int * int) list ->
  md_spec
(** Gather/scatter spec over [(buffer, off, len)] pieces. *)

val md_spec_reserved :
  ?options:Md.options ->
  ?threshold:Md.threshold ->
  ?unlink:Md.unlink_policy ->
  ?eq:Handle.eq ->
  ?user_ptr:int ->
  Md.reservation ->
  md_spec
(** Spec over a [Reserved] region: all of the reservation. *)

type drop_reason =
  | Malformed  (** Undecodable wire image. *)
  | Invalid_portal_index  (** Portal index outside the table (§4.8). *)
  | Acl_bad_cookie  (** Cookie is not a valid AC entry (§4.8). *)
  | Acl_id_mismatch  (** AC entry rejects the requesting process (§4.8). *)
  | Acl_portal_mismatch  (** AC entry rejects the portal index (§4.8). *)
  | No_match
      (** End of match list reached with no accepting entry (§4.4/4.8). *)
  | Ack_no_eq  (** Ack's event queue no longer exists (§4.8). *)
  | Reply_no_md  (** Reply's memory descriptor no longer exists (§4.8). *)
  | Reply_eq_full
      (** Reply's event queue has no space and is not null (§4.8). *)
  | Stale_incarnation
      (** Message stamped by a previous incarnation of its sender node —
          the sender crashed (and possibly restarted) after sending. The
          fence keeps a dead process's traffic from resurrecting state,
          without any per-peer connection to tear down (§3). *)
  | Atomic_misaligned
      (** Atomic request whose length is not the 64-bit word size or whose
          target offset is not word-aligned — a read-modify-write of a
          partial or straddled word has no sensible semantics (§4.8
          extended for atomics). *)
  | Atomic_reply_no_md
      (** Atomic reply's memory descriptor no longer exists (the atomic
          analogue of [Reply_no_md], §4.8). *)
  | Atomic_reply_eq_full
      (** Atomic reply's event queue has no space and is not null (the
          atomic analogue of [Reply_eq_full], §4.8). *)
  | Checksum_failed
      (** The frame's CRC-32C trailer did not match its bytes — the wire
          corrupted it in flight. The NI discards it like any other
          malformed message (§4.8); with the reliability shim installed
          the sender retransmits, so corruption degrades to loss and
          never reaches a memory descriptor. *)
  | Triggered_target_gone
      (** A fired chain named a handle (memory descriptor, counter or
          completion event queue) that no longer exists — the chain was
          armed against resources that were since unlinked. The action is
          skipped; the rest of the chain still runs (§4.8 extended to the
          triggered path). *)
  | Triggered_md_inactive
      (** A fired chain's put/atomic found its descriptor with an
          exhausted threshold (or otherwise refusing the operation) — a
          mis-armed chain whose descriptor ran out of sends. *)
  | Triggered_eq_full
      (** A chain's completion TRIGGERED event found its queue full; the
          queue's [PTL_EQ_DROPPED] counter ticks as well (§4.8). *)

val pp_drop_reason : Format.formatter -> drop_reason -> unit

val drop_reason_slug : drop_reason -> string
(** Stable snake_case identifier used as the ["reason"] metrics label. *)

val all_drop_reasons : drop_reason list

type counters = {
  puts_initiated : int;
  gets_initiated : int;
  atomics_initiated : int;
  acks_sent : int;
  replies_sent : int;
  atomics_executed : int;
      (** Incoming atomics executed at match time (each also sends a
          fetched-value reply). *)
  messages_received : int;
  bytes_received : int;
  translations : int;  (** Match-list walks performed. *)
  entries_walked : int;  (** Total match entries examined. *)
  triggered_fired : int;  (** Armed chains fired at a counter threshold. *)
}

val create :
  Simnet.Transport.t ->
  id:Simnet.Proc_id.t ->
  unit ->
  t
(** Bring up an interface for process [id] ([PtlNIInit]): registers with
    the transport and installs the §4.5 default ACL entries scoped to
    node-local wildcards (the runtime normally re-scopes entry 0 to the
    job). Every interface has 64 portal entries and 16 ACL entries. *)

val shutdown : t -> unit
(** [PtlNIFini]: unregister from the transport; incoming messages then
    drop at the fabric. *)

val id : t -> Simnet.Proc_id.t
val sched : t -> Sim_engine.Scheduler.t
val transport : t -> Simnet.Transport.t
val acl : t -> Acl.t

(** {1 Event queues} *)

val eq_alloc : t -> capacity:int -> (Handle.eq, Errors.t) result
(** Allocate an event queue ([PtlEQAlloc]). The queue registers an
    ["eq.depth"] series in the scheduler's metrics registry, labelled
    with this interface's process id. *)

val eq_free : t -> Handle.eq -> (unit, Errors.t) result
val eq : t -> Handle.eq -> (Event.Queue.t, Errors.t) result
(** Resolve a handle for direct [get]/[wait] access. *)

(** {1 Match entries} *)

val me_attach :
  t ->
  portal_index:int ->
  match_id:Match_id.t ->
  match_bits:Match_bits.t ->
  ignore_bits:Match_bits.t ->
  ?unlink:Md.unlink_policy ->
  ?pos:[ `Head | `Tail ] ->
  unit ->
  (Handle.me, Errors.t) result
(** Attach a match entry to a portal table entry's match list
    ([PtlMEAttach]); [pos] (default [`Tail]) selects which end. *)

val me_insert :
  t ->
  base:Handle.me ->
  match_id:Match_id.t ->
  match_bits:Match_bits.t ->
  ignore_bits:Match_bits.t ->
  ?unlink:Md.unlink_policy ->
  pos:[ `Before | `After ] ->
  unit ->
  (Handle.me, Errors.t) result
(** Insert relative to an existing entry ([PtlMEInsert]). *)

val me_unlink : t -> Handle.me -> (unit, Errors.t) result
(** Remove a match entry and its attached descriptors ([PtlMEUnlink]).
    Fails with [Md_in_use] if any attached descriptor has outstanding
    operations. *)

val me_retarget :
  t -> Handle.me -> match_bits:Match_bits.t -> (unit, Errors.t) result
(** Re-arm a match entry in place for new traffic. The entry takes
    [match_bits] (its ignore bits and source pattern stay) and moves to
    the tail of its portal's match list, the position a fresh
    {!me_attach} at [`Tail] would take, so the list order, and with it
    the number of entries every later walk examines, is the same as
    after {!me_unlink} followed by that attach. The handle, the attached
    descriptors and the attached counter ({!me_set_ct}) stay; each
    descriptor's locally managed offset goes back to 0 ({!Md.rewind}),
    so its next deposit lands at the start of the region. Thresholds are
    not restored. A request still in flight for the old bits finds no
    match here. Fails with [Md_in_use] if any attached descriptor has
    outstanding operations, and changes nothing then.

    This is how a library keeps long-lived NI state (§4) instead of
    rebuilding an entry, its descriptors and its counter for each use:
    {!Collectives.Nic_offload} re-targets its retired window slots. *)

val me_md_count : t -> Handle.me -> (int, Errors.t) result
(** Number of descriptors attached to the entry. *)

(** {1 Memory descriptors} *)

val md_attach : t -> me:Handle.me -> md_spec -> (Handle.md, Errors.t) result
(** Attach a descriptor at the tail of a match entry's MD list
    ([PtlMDAttach]). *)

val md_bind : t -> md_spec -> (Handle.md, Errors.t) result
(** Create a free-floating descriptor for initiating operations
    ([PtlMDBind]). *)

val md_unlink : t -> Handle.md -> (unit, Errors.t) result
(** [PtlMDUnlink]; [Md_in_use] while operations are outstanding. *)

val md_local_offset : t -> Handle.md -> (int, Errors.t) result
(** Current locally managed offset — how much of a slab MD is consumed. *)

val md_read :
  t -> Handle.md -> offset:int -> len:int -> dst:bytes -> dst_off:int ->
  (unit, Errors.t) result
(** Copy [len] bytes at [offset] of the descriptor's region into [dst]
    at [dst_off]: how a library reads data that landed in a region it
    does not hold the memory of (a [Reserved] slab). Reading a reserved
    region nothing was written to creates its bytes and returns
    unspecified contents; it does not fail. [Invalid_arg] when either
    range is out of bounds, [Invalid_md] for a stale handle. *)

val md_update :
  t -> Handle.md -> md_spec -> test_eq:Handle.eq -> (bool, Errors.t) result
(** [PtlMDUpdate]: atomically replace the descriptor behind the handle
    with one built from the spec, {e provided} the event queue [test_eq]
    is empty; returns [Ok false] (no update) otherwise. This is the
    conditional-update primitive higher-level libraries use to close the
    race between posting a receive and concurrent unexpected arrivals.
    Fails with [Md_in_use] while operations are outstanding. *)

val md_active : t -> Handle.md -> (bool, Errors.t) result

(** {1 Data movement (§4.3)} *)

type op = {
  target : Simnet.Proc_id.t;
  portal_index : int;
  cookie : int;  (** Access control entry index (§4.5). *)
  match_bits : Match_bits.t;
  offset : int;
}
(** Addressing for one put/get operation, mirroring {!md_spec}: the
    target process, its portal table entry, the access-control cookie,
    the matching criteria and the remote offset. *)

val op :
  ?cookie:int ->
  ?match_bits:Match_bits.t ->
  ?offset:int ->
  target:Simnet.Proc_id.t ->
  portal_index:int ->
  unit ->
  op
(** Spec with cookie {!Acl.default_cookie_job}, zero match bits and zero
    offset. *)

val put :
  t ->
  md:Handle.md ->
  ?ack:bool ->
  ?triggered:bool ->
  ?length:int ->
  op ->
  (unit, Errors.t) result
(** [PtlPut]: send the descriptor's region to the operation's target.
    With [ack] (default true) and an ack-enabled descriptor, the target
    acknowledges with the manipulated length (Table 2). A SENT event is
    logged locally once the message has left; when nothing can observe
    it — no event queue on the descriptor and an infinite threshold —
    the local completion is elided entirely, so fire-and-forget senders
    pay no extra simulation event per put.

    [length] (default: the whole region) sends only the region's first
    [length] bytes — the later Portals "put region" refinement; it lets
    a sender reuse one descriptor over a scratch buffer for variable
    sized messages instead of binding a fresh descriptor per send.

    [triggered] (default false) stamps the wire frame's provenance bit:
    the put was fired by a pre-armed chain, so the target logs the
    deposit as a TRIGGERED event rather than PUT. Chains set it
    automatically; host callers normally leave it off. *)

val get : t -> md:Handle.md -> op -> (unit, Errors.t) result
(** [PtlGet]: request the descriptor's length from the target; the reply
    deposits into the descriptor and logs a REPLY event. The descriptor
    cannot be unlinked until the reply arrives (§4.7). *)

val atomic :
  t ->
  md:Handle.md ->
  aop:Wire.aop ->
  operand:int64 ->
  ?compare:int64 ->
  op ->
  (unit, Errors.t) result
(** Atomically read-modify-write the 64-bit word at the operation's
    offset in the matched remote region — fetch-add, swap or
    compare-and-swap ({!Wire.aop}). The operation executes on the target
    interface at ME-match time with no target host fiber involvement
    (the §5.1 bypass path extended to read-modify-write); the matched
    descriptor must enable both put and get, the offset must be
    word-aligned and within range, and the op never truncates.

    Like a get, the fetched-value reply routes through [md] — the
    pre-operation value lands in the descriptor's first 8 bytes
    (little-endian) and logs a REPLY event; the target logs an ATOMIC
    event. [md] must describe at least 8 bytes and cannot be unlinked
    until the reply arrives. [compare] (default [0L]) is only consulted
    by {!Wire.Cas}. *)

(** {1 Counting events and triggered chains}

    The primitives NIC-resident collectives are built from (the
    Portals-4-style triggered-operation extension, motivated by the
    paper's §2/Fig. 6 bypass argument and the Yu et al. NIC-based
    collective protocol): a {e counting event} ({!Handle.ct}) attached to
    a match entry is bumped by the NI each time a deposit commits through
    that entry, and a chain of pre-described actions ({!ct_arm}) fires the
    moment the counter crosses the chain's threshold — inside the receive
    path, with no host fiber scheduled. Chains compose: a fired put lands
    on a peer's counted entry and fires the next hop, so a whole
    collective tree advances NIC-to-NIC while the hosts compute. *)

type triggered_action =
  | Triggered_put of { md : Handle.md; ack : bool; length : int option; op : op }
      (** Fire {!put} on [md] towards [op] (with the wire provenance bit
          set, so the target logs TRIGGERED). The payload is whatever the
          descriptor's region holds {e at fire time} — a forwarding hop
          re-sends the very bytes the triggering deposit just landed. *)
  | Triggered_atomic of {
      md : Handle.md;
      aop : Wire.aop;
      operand : int64;
      compare : int64;
      op : op;
    }  (** Fire {!atomic} on [md] towards [op]. *)
  | Triggered_combine of {
      dst : Handle.md;
      src : Handle.md;
      f : bytes -> bytes -> unit;
    }
      (** NIC-local reduction step: run [f dst src], which folds the
          [src] region into the [dst] region in place — the combine a
          programmable NIC performs on a tree packet before forwarding it
          (Yu et al.'s MCP). When each descriptor covers one whole buffer
          ({!Md.whole_buffer}) and the buffers differ, [f] gets those
          buffers; otherwise it gets copies of both regions and the [dst]
          copy is written back. [f] must not modify [src]. No message is
          sent; pair with a trailing {!Triggered_put} of [dst] to forward
          the result. *)
  | Triggered_ct_inc of { ct : Handle.ct; amount : int }
      (** Bump another counter — fan-in accumulation ("all children
          arrived") and chain-completion flags. May cascade: the bump
          fires any chain the target counter now satisfies. *)

val ct_alloc : t -> (Handle.ct, Errors.t) result
(** Allocate a counting event, initially 0 ([PtlCTAlloc]-style). *)

val ct_free : t -> Handle.ct -> (unit, Errors.t) result
(** Release a counter. Chains still armed on it are discarded; a match
    entry still pointing at it bumps into {!drop_reason.Triggered_target_gone}.
    Fibers blocked in {!ct_wait} on it wake and fail with [Invalid_ct]. *)

val ct_reset : t -> Handle.ct -> (unit, Errors.t) result
(** Set the value to 0 and discard every chain armed on the counter that
    has not fired ([PtlCTSet] to 0 plus [PtlCTCancelTriggered]). The
    handle stays valid, as does any match entry pointing at it. Fibers
    blocked in {!ct_wait} are not woken: they keep waiting for their
    threshold, now counted from 0. *)

val ct_get : t -> Handle.ct -> (int, Errors.t) result
(** Current value ([PtlCTGet]). *)

val ct_inc : t -> Handle.ct -> int -> (unit, Errors.t) result
(** Host-side bump by a positive amount ([PtlCTInc]): fires newly
    eligible chains and wakes {!ct_wait}ers, exactly like a match-time
    bump. *)

val ct_wait : t -> Handle.ct -> threshold:int -> (int, Errors.t) result
(** Fiber-only: block until the counter reaches [threshold]; returns the
    value observed ([PtlCTWait]). This is the {e only} blocking point a
    NIC-offloaded collective uses — everything between the host's first
    send and this wake happens in receive paths. Fails with [Invalid_ct]
    if the counter is freed while waiting; a {!ct_reset} while waiting
    keeps the fiber blocked until the threshold is reached again. *)

val me_set_ct : t -> me:Handle.me -> ct:Handle.ct -> (unit, Errors.t) result
(** Attach a counter to a match entry: every put/get/atomic that commits
    through the entry bumps the counter by one, after the deposit's
    events and responses are issued. *)

val ct_arm :
  t ->
  ct:Handle.ct ->
  ?eq:Handle.eq ->
  ?user_ptr:int ->
  threshold:int ->
  triggered_action list ->
  (unit, Errors.t) result
(** Arm a chain: when [ct] reaches [threshold] (now or later — arming at
    or below the current value fires immediately, closing the race with
    deposits that land before the host arms), run the actions in order,
    then post a TRIGGERED event to [eq] if given (tagged [user_ptr]; the
    event's [offset] carries the threshold, [rlength] the action count).
    Chains on one counter fire in arming order; each fired chain is
    charged one match-entry cost per action on the receive processor.
    Mis-armed chains — vanished handles, inactive descriptors, full
    completion queues — drop into the dedicated §4.8 reasons instead of
    raising. *)

(** {1 Introspection} *)

val dropped : t -> drop_reason -> int
val dropped_total : t -> int
(** The interface's dropped message count (§4.8). *)

val counters : t -> counters

type resources = { live_mes : int; live_mds : int; live_eqs : int; live_cts : int }
(** Live handles of each kind: match entries (linked in some match list),
    memory descriptors (attached or bound), event queues and counters. *)

val resources : t -> resources
(** What the interface holds right now. A library that re-arms its
    entries in place holds a constant set however many operations run;
    a leak shows up as growth here. *)
