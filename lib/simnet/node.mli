(** A simulated cluster node: host CPU plus network injection link.

    Compute-node architecture follows the paper's platforms: one
    application-visible host processor and a network interface with its own
    transmit pipeline. Multiple simulated processes may live on one node
    and share both.

    A node's up/down state and crash epoch are not here: the fabric keeps
    them for every node of the world, including the ones a sharded
    replica holds no [Node.t] for (see [Fabric.crash]). *)

type t

val create : Sim_engine.Scheduler.t -> nid:Proc_id.nid -> t
(** A fresh node with an idle CPU and link. *)

val host_cpu : t -> Sim_engine.Cpu.t
(** The application-visible host processor; compute and host-side
    protocol costs ({!Profile.t} syscall/interrupt fields) occupy it. *)

val tx_link : t -> Link.t
(** The node's serialising transmit pipeline: concurrent sends from
    this node queue here before reaching the wire. *)
