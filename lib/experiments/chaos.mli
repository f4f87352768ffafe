(** Invariant-checked chaos campaigns (CH).

    Every cell of a corruption x delay x partition x crash x loss grid
    ({!Reliability.Chaos}) runs two seeded worlds and asserts what must
    survive the abuse:

    {ul
    {- {e stream} — per-pair message streams over the reliability shim:
       delivered exactly once, in order, byte-identical (corruption must
       degrade to loss, never silent damage), with a liveness monitor
       asserting a partitioned-but-alive peer is reported partitioned,
       not crashed, and that suspicion converges after the heal;}
    {- {e rma} — concurrent one-sided fetch_adds and CAS slot claims
       that must stay linearizable under the same faults.}}

    A cell passes when its violation list is empty; the campaign passes
    when every cell does. Deterministic per seed.

    A cell's faults reach its worlds the way every run's do: the cell is
    written out as two {!Runtime.Scenario.t} ({!world_scenarios}) and
    {!Runtime.create_world} builds each world from one. So a faulty cell
    runs on checksummed frames with the reliability shim, and the clean
    control cell is a clean world: no shim, no integrity trailers. The
    unchecksummed shim is covered elsewhere: by [rel_loss_sweep], the
    matrix's [MX.*.loss-goodput] rows and the [integrity:false] unit
    tests. *)

type report = {
  cell : Reliability.Chaos.cell;
  violations : string list;  (** Empty iff the cell passed. *)
  delivered : int;  (** Stream payloads accepted exactly once. *)
  corrupts_injected : int;
  delays_injected : int;
  drops_partitioned : int;
  rel_corrupt_drops : int;  (** Shim frames discarded on bad CRC. *)
  checksum_drops : int;  (** NI-level [Checksum_failed] drops (§4.8). *)
  sim_time_us : float;
}

type t = { reports : report list }

(** {1 Stream checker}

    The receive side of one stream world pair: it counts what a
    destination handler is handed and names every broken stream
    invariant. *)

type stream

val stream : src:Simnet.Proc_id.nid -> dst:Simnet.Proc_id.nid -> msgs:int -> stream
(** A checker for the stream of [msgs] payloads that [src] sends to
    [dst]; each payload leads with its sequence number. *)

val stream_receive : stream -> src:Simnet.Proc_id.t -> bytes -> unit
(** A {!Simnet.Fabric.register} handler for [dst]. Arrivals from other
    nodes are ignored; a payload too short to carry a sequence number
    counts as an out-of-order and a corrupted arrival, never an
    exception. *)

val stream_violations : stream -> string list
(** Each broken invariant, in this order: fewer than [msgs] payloads
    accepted in order, out-of-order or duplicate arrivals, corrupted
    payloads. Empty when the stream was delivered exactly once, in order
    and byte-identical. *)

val world_scenarios :
  domains:int ->
  Reliability.Chaos.cell ->
  Runtime.Scenario.t * Runtime.Scenario.t
(** The scenarios of a cell's stream world (seed [cell.seed]) and RMA
    world (seed [cell.seed + 1]), each sharded over [domains]. Every
    fault is written in the spec grammar, with each axis on its own seed
    [4 * cell.seed + k]:

    {ul
    {- the fault spec joins, in this order, ["corrupt:P@s(4s+1)"],
       ["delay:MEAN_US@s(4s+2)"], ["bernoulli:P@s(4s+3)"] and a
       partition ["partition:0.1.2|3.4.5@CUT:HEAL"] that cuts the six
       nodes in half from [horizon/4] to [3*horizon/4];}
    {- a cell whose only axis is crashes has the fault spec ["none"], so
       both its worlds still get checksummed frames and the shim; the
       clean cell has no fault spec;}
    {- the stream world's crash spec holds [cell.crashes] crash/restart
       pairs drawn by {!Simnet.Fault.random_crash_schedule} (seed
       [4s+4]) over nodes 4 and 5, which no stream and no monitor use;
       the RMA world has none.}}

    Times are microseconds with three decimals, so each reads back to
    the nanosecond it was drawn at. *)

val axis_cells : seed:int -> (string * Reliability.Chaos.cell) list
(** One named cell per fault axis (clean control, corrupt, delay,
    partition, crash, loss) plus a mixed cell. *)

val default_cells :
  ?quick:bool -> seed:int -> unit -> Reliability.Chaos.cell list
(** [quick]: the {!axis_cells}; otherwise the full 2x2x2x2x2 grid. *)

val run_cell :
  ?scenario:Runtime.Scenario.t -> ?quick:bool -> Reliability.Chaos.cell ->
  report
(** Run both worlds for one cell, built from {!world_scenarios}; of
    [scenario] (default {!Runtime.Scenario.default}) only the domain
    count is used. Touches no state outside its own worlds: cells may
    run concurrently on separate domains. *)

val run :
  ?scenario:Runtime.Scenario.t ->
  ?cells:Reliability.Chaos.cell list ->
  ?quick:bool ->
  unit ->
  t
(** Run [cells] (default {!default_cells} at the scenario's seed) with
    {!run_cell}. *)

val zero_violations : t -> bool
val total_violations : t -> int
val pp : Format.formatter -> t -> unit

val perf_records :
  ?scenario:Runtime.Scenario.t -> ?quick:bool -> unit -> Perf.record list
(** One portals-bench/2 record per {!axis_cells} entry at the scenario's
    seed (ids [CH.<axis>]);
    raises [Failure] if any metered cell violates an invariant. *)
