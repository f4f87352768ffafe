(** The job-control protocol of the parallel runtime — Cplant's "yod".

    §2: on these machines "the only way to communicate with a process on
    a compute node is via Portals", so job launch itself is a Portals
    protocol. The launcher process puts a {e start} message (job id, job
    size) to a per-rank control agent listening on the system portal
    entry; each agent runs the rank's main and puts an {e exit status}
    back; the launcher gathers all statuses.

    Control agents are separate simulated processes (distinct pids on the
    ranks' nodes), so application traffic and runtime traffic share nodes
    and wires but not endpoints — the multi-process-per-node design of
    §2. *)

type report = {
  job_id : int;
  statuses : int array;  (** Exit status per rank, as gathered. *)
  elapsed : Sim_engine.Time_ns.t;
      (** Launcher-observed time from first start message to last exit. *)
}

val run_job :
  ?job_id:int -> World.world -> (rank:int -> int) -> report
(** Launch the job over the control protocol and drive the simulation to
    completion: every rank's main runs only after its agent received the
    start message, and the report is complete when the launcher has all
    exit statuses. The main's return value is the rank's exit status. *)
