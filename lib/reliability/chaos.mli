(** Chaos campaign grids: composing corruption, delay, partition, crash
    and loss faults into cells that span the full fault domain.

    A {!cell} names one point of the fault space plus a seed; {!grid}
    builds the cartesian product of per-axis levels. The translation to
    concrete machinery is split exactly as the fabric consumes it:
    {!fault_of_cell} yields the composed per-message fault model,
    {!partition_of_cell} and {!crash_schedule_of} yield the scheduled
    events. Inside a cell each axis draws from its own seeded stream, so
    enabling one axis never perturbs another's randomness — cells differ
    only where their parameters differ.

    Invariant checking over worlds lives upstream in
    [Experiments.Chaos]; this module has no scheduler dependency. *)

type cell = {
  corrupt : float;  (** Per-message corruption probability. *)
  delay : Sim_engine.Time_ns.t;  (** Mean extra latency; 0 = none. *)
  partition : bool;  (** Schedule a mid-run symmetric cut + heal. *)
  crashes : int;  (** Crash/restart pairs to schedule. *)
  loss : float;  (** Per-message drop probability. *)
  seed : int;
}

val cell :
  ?corrupt:float ->
  ?delay:Sim_engine.Time_ns.t ->
  ?partition:bool ->
  ?crashes:int ->
  ?loss:float ->
  seed:int ->
  unit ->
  cell
(** All axes default to off. Raises [Invalid_argument] on a probability
    outside [0, 1], a negative delay, or a negative crash count. *)

val grid :
  ?corrupts:float list ->
  ?delays:Sim_engine.Time_ns.t list ->
  ?partitions:bool list ->
  ?crash_counts:int list ->
  ?losses:float list ->
  seeds:int list ->
  unit ->
  cell list
(** Cartesian product of the given axis levels (each defaulting to the
    single "off" level) with each seed. *)

val faulty : cell -> bool
(** Whether any axis is active — a [false] cell is a clean control run. *)

val fault_of_cell : cell -> Simnet.Fault.t option
(** The composed per-message fault model (corruption, delay, loss), or
    [None] when all three axes are off. *)

val partition_of_cell :
  cell ->
  nids:Simnet.Proc_id.nid list ->
  horizon:Sim_engine.Time_ns.t ->
  Simnet.Fault.partition_schedule
(** When the cell's partition axis is on: one symmetric cut splitting
    [nids] in half at [horizon/4], healing at [3*horizon/4]. Empty
    schedule otherwise (or with fewer than two nodes). *)

val crash_schedule_of :
  cell ->
  nids:Simnet.Proc_id.nid list ->
  horizon:Sim_engine.Time_ns.t ->
  Simnet.Fault.crash_schedule
(** [cell.crashes] seeded crash/restart pairs over [\[0, horizon)]. *)

val describe : cell -> string
(** One-line cell label, e.g. ["corrupt=0.01 partition seed=7"]. *)
