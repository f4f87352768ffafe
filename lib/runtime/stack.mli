(** The benchmark-stack registry: every named MPI-over-wire combination
    the cross-stack comparison covers, in one table.

    A stack is a wire placement plus the MPI endpoint constructor layered
    over it: ["portals"] (NIC-offload Portals, §5.2), ["gm"]
    (MPICH/GM-style ports and tokens), ["rtscts"] (the kernel RTS/CTS
    production stack of §3) and ["ibverbs"] (RDMA-write rings and
    rendezvous, Liu et al.). [Experiments.Matrix] iterates this table;
    the CLIs validate [--transports] lists against {!names}. *)

type t = {
  name : string;  (** The [--transports] / matrix-row name. *)
  kind : World.transport_kind;  (** Wire placement the stack runs over. *)
  create :
    Simnet.Transport.t -> ranks:Simnet.Proc_id.t array -> rank:int -> Mpi.t;
      (** Endpoint constructor with the stack's default configuration. *)
}

val all : t list
(** Every stack, in canonical report order. *)

val names : string list
(** [List.map name all]. *)

val find_exn : string -> t
(** Raises [Invalid_argument] naming the valid stacks. *)

val launch_on : World.world -> t -> (Mpi.t -> unit) -> World.world
(** [launch_on world stack main] runs one MPI job: create one endpoint
    per rank over the rank's transport (all before any rank runs, so no
    early message is lost), run [main] on each, finalize collectively
    behind a crash-tolerant barrier (as MPI_Finalize requires), then
    {!World.run}. Returns [world] for inspection. The world's transport
    should match the stack's placement ({!World.create_world} with
    [~transport:stack.kind]). *)
