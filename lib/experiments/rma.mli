(** One-sided RMA workloads (ids [RMA.<workload>]) over the MPI-3-style windows of
    [lib/onesided] and the Portals atomics under them:

    {ul
    {- [latency] — 8-byte [put]+[flush] and [fetch_and_add] round trips
       against a send/recv ping-pong RTT on the same fabric;}
    {- [passive] — passive-target progress: the target rank computes in
       long slices and never calls the library, while the initiator's
       fetch-adds are served by the target {e interface} (the paper's
       Figure 6 application-bypass argument generalized to
       read-modify-write). The send/recv yardstick only answers between
       compute slices; the row's value is its mean echo latency over the
       RMA mean — large when bypass works;}
    {- [halo] — the halo-exchange stencil run twice, over send/recv and
       over RMA windows (double-buffered ghost slots, flag-byte
       synchronisation), and the two results compared {e bit for bit};}
    {- [hashtable] — a distributed hash table: CAS-insert with linear
       probing, slot [s] owned by rank [s mod n], plus a fetch-add
       occupancy counter on rank 0, verified against the slots actually
       filled.}}

    All workloads are deterministic for a fixed seed. *)

type row = {
  workload : string;
  value : float;
  unit_ : string;
  detail : string;  (** Human-readable numbers behind [value]. *)
  sim_time_us : float;  (** Simulated span the workload's worlds covered. *)
}

type t = { rows : row list }

val workload_names : string list
(** [latency], [passive], [halo], [hashtable], in run order. *)

val run :
  ?scenario:Runtime.Scenario.t -> ?workloads:string list -> ?quick:bool ->
  unit -> t
(** Run the selected workloads (default all). Raises [Invalid_argument]
    on an unknown name — CLIs should validate against
    {!workload_names} first. [quick] shrinks every workload to
    smoke-test size. *)

val pp : Format.formatter -> t -> unit

val perf_records :
  ?scenario:Runtime.Scenario.t -> ?workloads:string list -> ?quick:bool ->
  unit -> Perf.record list
(** Meter every selected workload as a {!Perf.record} (portals-bench/2),
    id {!record_id} — appended to the bench report and gated against
    [bench/baseline.json] like any other experiment. *)
