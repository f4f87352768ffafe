(** The scalability arguments of §4.1.

    {b Memory scaling} — "Portals allow for the amount of memory used for
    unexpected message buffers to be based on the needs and behavior of
    the application rather than based simply on the number of processes
    in a parallel job. For many message passing systems, such as VIA, the
    amount of memory required grows linearly with the number of
    connections." We measure the Portals MPI's slab reservation and
    unexpected high-water mark while the job size grows with a fixed
    communication pattern, against the per-peer buffer requirement of a
    connection-oriented (VIA/GM-credit) design.

    {b Collective scaling} — barrier and allreduce completion time as
    node count grows, on the connectionless Portals collectives
    (logarithmic rounds, no per-peer state). *)

type memory_row = {
  job_size : int;
  portals_reserved : int;  (** Slab bytes allocated (configuration). *)
  portals_highwater : int;  (** Peak unexpected bytes actually held. *)
  via_like_bytes : int;
      (** Per-connection buffering a VIA/GM-credit design dedicates:
          (n-1) peers x credits x eager buffer. *)
}

val run_memory :
  ?scenario:Runtime.Scenario.t ->
  ?job_sizes:int list -> ?credits:int -> ?eager:int -> unit -> memory_row list
(** Pattern: every rank sends 4 unexpected 1 KB messages to rank 0, which
    claims them afterwards. Defaults: jobs 4..64, 8 credits, 16 KB eager
    buffers for the VIA-like model. *)

val pp_memory : Format.formatter -> memory_row list -> unit

type coll_row = { nodes : int; barrier_us : float; allreduce_us : float }

val run_collectives :
  ?scenario:Runtime.Scenario.t ->
  ?impl:Collectives.impl ->
  ?node_counts:int list ->
  unit ->
  coll_row list
(** Defaults: 2..256 nodes; allreduce of 8 float64s. [impl] (default:
    the scenario's [collectives], set by [--collectives]) picks the
    engine the ranks build — host-driven trees or the NIC-offloaded
    triggered chains. *)

val pp_collectives : Format.formatter -> coll_row list -> unit

type perf_row = {
  p_nodes : int;
  p_sim_events : int;  (** Scheduler events processed in the timed phase. *)
  p_wall_s : float;  (** Wall-clock seconds for the timed phase. *)
  p_events_per_sec : float;
}

val run_perf :
  ?scenario:Runtime.Scenario.t ->
  ?node_counts:int list -> ?rounds:int -> ?frags:int -> unit -> perf_row list
(** Simulator-throughput sweep: per node count, [rounds] timed rounds of
    a segmented gather to rank 0 ([frags] 8-byte fragments per rank,
    claimed per-sender by match bits after an allreduce has let them all
    arrive unexpected) plus an 8-float allreduce. World setup and a
    warmup barrier are excluded from the measurement. The gather pools'
    event queues hold [2 * (nodes - 1) * frags] events, two rounds of
    fragments, so the sweep runs at any node count. Defaults: 64, 128,
    256, 512 and 1024 nodes, 4 rounds, 4 fragments. *)

val pp_perf : Format.formatter -> perf_row list -> unit
