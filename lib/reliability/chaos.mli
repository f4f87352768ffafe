(** Chaos campaign grids: composing corruption, delay, partition, crash
    and loss faults into cells that span the full fault domain.

    A {!cell} names one point of the fault space plus a seed; {!grid}
    builds the cartesian product of per-axis levels. A cell is data
    only: [Experiments.Chaos.world_scenarios] writes it out as the
    scenarios of its two worlds, in the [--fault] / [--crash] spec
    grammar, and [Runtime.create_world] builds the faults from those,
    as it does for every other run. There, each axis draws from its own
    seeded stream, so enabling one axis never perturbs another's
    randomness — cells differ only where their parameters differ. *)

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

val describe : cell -> string
(** One-line cell label, e.g. ["corrupt=0.01 partition seed=7"]. *)
