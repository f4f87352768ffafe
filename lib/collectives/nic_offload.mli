(** NIC-resident collectives over triggered-operation chains.

    This engine runs the same dissemination barrier, binomial broadcast
    and binomial reduction as the host-driven {!Collectives}, read from
    the same {!Plan}, but compiles every interior tree hop into a
    pre-armed chain
    ({!Portals.Ni.ct_arm}): a counting event attached to a match entry
    fires forwarding puts, NIC-local combines and counter bumps the
    moment the awaited deposit commits — inside the simulated NI's
    receive path, with {e no host fiber scheduled between tree hops}.
    The host touches a collective exactly twice: arming the chains and
    sending the first frame, then waking from {!Portals.Ni.ct_wait}.
    This is the paper's §2/Fig. 6 host-bypass argument applied to
    collective trees (after Yu et al.'s NIC-based collectives): a busy
    host CPU stretches a host-driven tree at every hop, and stretches an
    offloaded tree not at all — [Experiments.Coll] measures exactly that
    contrast.

    {b Resource model.} Each collective call consumes one sequence
    number ([allreduce] two). Every rank pre-arms, per sequence in a
    sliding window, one fixed-size frame slot per tree round: a Retain
    match entry (bits = sequence · round, source ignored) over an
    [8-byte length prefix + 1024-byte payload] buffer with a counting
    event attached. Pre-arming means an early peer's deposit can never
    race the local call — it lands in the buffer and bumps the counter, and
    the chains armed later pick it up via arm-time firing. The window
    advances at an internal chain barrier every 8 sequences,
    which also proves retirement is drop-free (a completed collective
    implies every deposit addressed here for its sequence has landed).
    A retired sequence's slots are re-armed in place for a sequence one
    window ahead ({!Portals.Ni.me_retarget}, {!Portals.Ni.ct_reset}), and
    the reduce accumulator persists across calls: after [create] the
    endpoint allocates no NI resources, the first internal sync releases
    one surplus slot set, and from then on the set it holds is fixed.

    {b Equivalence.} Results are byte-identical to {!Collectives} for
    the same ranks, roots, payloads and operators — reductions fold
    children in the plan's ascending round order, so even floating-point
    rounding matches. The conformance suite in [test/collectives] runs
    every check against both engines. *)

type t

val create :
  Portals.Ni.t ->
  ranks:Simnet.Proc_id.t array ->
  rank:int ->
  ?portal_index:int ->
  unit ->
  t
(** Join a NIC-offloaded collective group of [Array.length ranks]
    members as [ranks.(rank)]; every member must create its endpoint
    with the same parameters before any traffic flows (all ranks
    creating at simulated time zero, before blocking, satisfies this).

    [portal_index] (default 8) is the portal table entry the slot match
    entries live on — keep it clear of the host engine's (6).
    Every bcast/reduce payload is at most 1024 bytes; the fixed frame
    moved between NICs is 8 + 1024 bytes. The pre-armed sequence window
    is 24 sequences and the internal barrier runs every 8: the window
    covers two full sync periods, the minimum that makes a fast rank's
    traffic always land on armed slots. *)

val barrier : ?tolerant:bool -> t -> unit
(** Dissemination barrier: the host sends one round-0 token and waits
    for a counter to reach the round count; every round-k arrival fires
    the round-(k+1) token from inside the receive path. With [tolerant]
    (default false), slots whose sender's node is down
    ({!Simnet.Fabric.is_node_up}) are bumped from the host — the armed
    chain fires as if the token had landed — so survivors are released,
    the shutdown contract of {!Collectives.barrier}. *)

val bcast : t -> root:int -> bytes -> bytes
(** Binomial broadcast of [root]'s payload (ignored elsewhere); each
    receiver's arrival fires the puts to all its children in one chain. *)

val reduce :
  t -> root:int -> op:(bytes -> bytes -> unit) -> bytes -> bytes option
(** Binomial reduction with NIC-local combining (one
    [Triggered_combine] per child, ascending round order, then a forward
    put). Root-only result, same contract as {!Collectives.reduce}:
    [Some combined] at [root], [None] elsewhere. [op acc contribution]
    must fold [contribution] into [acc] in place. *)

val allreduce : t -> op:(bytes -> bytes -> unit) -> bytes -> bytes
(** [reduce] to rank 0 chained into a [bcast] — two sequences, both
    offloaded. *)
