(** PAR: the parallel-engine workload and determinism witness.

    A nearest-neighbour halo exchange on a 2-D torus, runnable at any
    domain count. Every delivery folds (src, dst, step, arrival time)
    into an order-insensitive digest, so the {!canonical} line is a pure
    function of the simulated history — identical across [--domains]
    values by the engine's determinism contract ({!Sim_engine.Shard}),
    and diffed by the CI parallel-determinism gate. The same workload is
    metered as [PAR.seq] / [PAR.par4] for the multicore speedup gate. *)

type result = {
  nodes : int;
  dims : int list;  (** Torus dimensions actually used. *)
  steps : int;
  domains : int;  (** Shards actually used (capped at [nodes]). *)
  delivered : int;
  expected : int;
  errors : int;  (** Damaged or misattributed payloads accepted. *)
  digest : int;  (** Order-insensitive fold of every delivery. *)
  sim_time_us : float;
  window_rounds : int;  (** 0 when sequential. *)
  lookahead_us : float;  (** 0 when sequential. *)
  setup_s : float;
      (** Host seconds building the world and scheduling every send. *)
  run_s : float;  (** Host seconds in [Runtime.run]. *)
  wall_s : float;  (** [setup_s +. run_s]. *)
}

val run :
  ?scenario:Runtime.Scenario.t ->
  ?nodes:int ->
  ?steps:int ->
  ?domains:int ->
  unit ->
  result
(** One exchange: [nodes] (default 256, >= 9) on the fitted 2-D torus,
    [steps] send rounds (default 8) to each torus neighbour, in a world
    built from [scenario] (default {!Runtime.Scenario.default}): its
    seed, its domain count unless [domains] is given, and its faults,
    so a faulty scenario exercises the sharded reliability shim too. *)

val ok : result -> bool
(** Every expected payload arrived, none damaged. *)

val pp : Format.formatter -> result -> unit

val selfcheck :
  ?scenario:Runtime.Scenario.t ->
  ?nodes:int ->
  ?steps:int ->
  ?domains:int ->
  unit ->
  (result * result, string) Result.t
(** Run the identical world at [--domains 1] and [domains] (default 4)
    and compare canonical lines; [Error] describes any divergence or
    incomplete delivery. *)

(** {1 Perf records} *)

type metered = {
  records : Perf.record list;  (** [PAR.seq] then [PAR.par4]. *)
  seq_run_s : float;  (** Fastest [run_s] of [PAR.seq]'s repeats. *)
  par4_run_s : float;  (** Fastest [run_s] of [PAR.par4]'s repeats. *)
}

val meter_runs : ?scenario:Runtime.Scenario.t -> ?quick:bool -> unit -> metered
(** Meter the workload at 1 and at 4 domains ({!Perf.meter}, best of
    three each) and keep each side's fastest run phase. *)

val run_speedup : metered -> float option
(** [seq_run_s /. par4_run_s]: the run phase alone, set-up left out. The
    multicore CI lane gates this at >= 2x; on one hardware core it is
    expectedly < 1. *)

val events_speedup : Perf.record list -> float option
(** [events_per_sec] of [PAR.par4] over [PAR.seq], set-up included, when
    both are present with non-zero rates. Printed beside
    {!run_speedup}. *)
