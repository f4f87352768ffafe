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
    when every cell does. Deterministic per seed. *)

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

val axis_cells : seed:int -> (string * Reliability.Chaos.cell) list
(** One named cell per fault axis (clean control, corrupt, delay,
    partition, crash, loss) plus a mixed cell. *)

val default_cells :
  ?quick:bool -> seed:int -> unit -> Reliability.Chaos.cell list
(** [quick]: the {!axis_cells}; otherwise the full 2x2x2x2x2 grid. *)

val run_cell :
  ?scenario:Runtime.Scenario.t -> ?quick:bool -> Reliability.Chaos.cell ->
  report
(** Run both worlds for one cell. The cell scripts every fault; of
    [scenario] (default {!Runtime.Scenario.default}) only the domain
    count is used. Frames travel checksummed exactly when the cell
    injects faults (each fabric's integrity bit), so the clean control
    cell also pins the byte-identical legacy encoding. Touches no state
    outside its own worlds: cells may run concurrently on separate
    domains. *)

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
