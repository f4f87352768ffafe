(** Collective communication implemented directly on Portals.

    §2 of the paper: the Puma MPI "utilized a high-performance collective
    communication library implemented directly on Portals". This module
    is that layer for the reproduction: tree and dissemination algorithms
    whose point-to-point steps are raw Portals puts into a pooled
    endpoint ({!Pool}) — no MPI underneath.

    All ranks of the group must call each collective in the same order
    (calls are sequenced internally, so different collectives never
    confuse each other's messages). Calls are fiber-blocking.

    This module is the {e host-driven} reference engine: every tree hop
    is a host fiber receiving, combining and re-sending. The
    NIC-offloaded alternative with identical results lives in
    {!Nic_offload} (re-exported as {!Nic}). Both walk one {!Plan}, and
    {!create_impl} picks one at run time; the CLIs expose the choice as
    [--collectives host|nic]. *)

module Pool = Pool
module Plan = Plan
module Nic = Nic_offload

type t

val create :
  Portals.Ni.t ->
  ranks:Simnet.Proc_id.t array ->
  rank:int ->
  ?portal_index:int ->
  ?slab_size:int ->
  ?slab_count:int ->
  ?eq_capacity:int ->
  ?host_cpu:Sim_engine.Cpu.t ->
  unit ->
  t
(** One collectives endpoint per rank over an existing Portals interface.
    [portal_index] defaults to 6. The pool sizing defaults are tuned for
    short collective steps (2 slabs of 16 KiB, EQ depth 1024); raise
    [slab_size] when moving payloads larger than one slab.

    When [host_cpu] is supplied, every protocol hop charges 2 µs of
    compute to it — modelling the per-message host work a host-driven
    tree cannot avoid. The charge serializes behind
    whatever else that CPU is computing, so collectives on a busy host
    degrade (the contrast {!Nic_offload} removes, measured by
    [Experiments.Coll]). Unset, timing is unchanged. *)

val barrier : ?tolerant:bool -> t -> unit
(** Dissemination barrier: ceil(log2 n) rounds. With [tolerant] (default
    false), exchanges with ranks whose node is down
    ({!Simnet.Fabric.is_node_up}) are skipped — the shutdown best-effort
    contract of [Mpi.barrier ~tolerant] — so survivors are released. *)

val bcast : t -> root:int -> bytes -> bytes
(** Binomial-tree broadcast of root's buffer; every rank returns the
    payload (the root returns its own buffer). *)

val reduce : t -> root:int -> op:(bytes -> bytes -> unit) -> bytes -> bytes option
(** Binomial-tree reduction: [op acc contribution] folds a child's
    contribution into [acc] in place (buffers are equal-length).

    {b The result is root-only — hence [bytes option].} Every rank calls
    [reduce] and every rank contributes a payload, but only [root] holds
    the combined value when the call returns: the root gets
    [Some result], every other rank gets [None]. The asymmetry is the
    MPI_Reduce contract surfaced in the type instead of an
    uninitialised "recvbuf" convention — a non-root cannot accidentally
    read a result that was never sent to it, and forgetting to handle
    the non-root case is a compile error rather than garbage data.
    Pattern-match on your own role:

    {[
      (* Every rank contributes; only rank 0 prints the total. *)
      let mine = Collectives.bytes_of_floats [| local_sum |] in
      match Collectives.reduce c ~root:0 ~op:Collectives.sum_floats mine with
      | Some total ->
        (* we are rank 0: the fold ran ((root ⊕ c1) ⊕ c2) ⊕ … *)
        Format.printf "total: %f@."
          (Collectives.floats_of_bytes total).(0)
      | None -> ()   (* any other rank: contributed, owns no result *)
    ]}

    Ranks that need the value everywhere should call {!allreduce}
    instead of broadcasting a [reduce] result by hand. Both engines
    ({!Collectives} and {!Nic_offload}) implement this identical
    contract; folds run in the plan's ascending round order, so results are
    byte-identical between them. *)

val allreduce : t -> op:(bytes -> bytes -> unit) -> bytes -> bytes
(** Reduce to rank 0, then broadcast. *)

val gather : t -> root:int -> bytes -> bytes array option
(** Every rank contributes one buffer; the root returns them indexed by
    rank. Contributions may differ in length. *)

val scatter : t -> root:int -> bytes array option -> bytes
(** The root supplies one buffer per rank ([Some pieces], length = job
    size); every rank returns its piece. *)

val allgather : t -> bytes -> bytes array
(** Ring allgather: n-1 steps, each passing the next chunk around. *)

val alltoall : t -> bytes array -> bytes array
(** Personalised exchange: element [i] of the input goes to rank [i];
    the result's element [j] came from rank [j]. *)

(** {1 Typed helpers} *)

val sum_floats : bytes -> bytes -> unit
(** In-place element-wise float64 sum, for {!reduce}/{!allreduce}. *)

val max_floats : bytes -> bytes -> unit

val bytes_of_floats : float array -> bytes
val floats_of_bytes : bytes -> float array

val allreduce_float_sum : t -> float array -> float array
(** Element-wise sum across all ranks. *)

(** {1 Implementation selection}

    [Host] is this module's host-driven reference, [Nic_offload] is the
    triggered-chain engine. Results are byte-identical; only where the
    tree's work happens, and therefore how it interacts with a busy host
    CPU, differs. *)

type impl = Host | Nic_offload

val impl_name : impl -> string
(** ["host"] / ["nic"] — the [--collectives] CLI spellings. *)

val impl_of_string : string -> impl option
(** Inverse of {!impl_name} (also accepts ["nic_offload"]). *)

type any
(** An endpoint of either engine. *)

val create_impl :
  impl ->
  Portals.Ni.t ->
  ranks:Simnet.Proc_id.t array ->
  rank:int ->
  ?host_cpu:Sim_engine.Cpu.t ->
  unit ->
  any
(** Create an endpoint of the chosen engine with default sizing.
    [host_cpu] is the per-hop charge target for the [Host] engine
    (see {!create}); the NIC engine ignores it — that is the point. *)

val any_barrier : ?tolerant:bool -> any -> unit
val any_bcast : any -> root:int -> bytes -> bytes

val any_reduce :
  any -> root:int -> op:(bytes -> bytes -> unit) -> bytes -> bytes option

val any_allreduce : any -> op:(bytes -> bytes -> unit) -> bytes -> bytes
