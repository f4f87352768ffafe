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

val axis_cells : seed:int -> (string * Reliability.Chaos.cell) list
(** One named cell per fault axis (clean control, corrupt, delay,
    partition, crash, loss) plus a mixed cell. *)

val default_cells :
  ?quick:bool -> seed:int -> unit -> Reliability.Chaos.cell list
(** [quick]: the {!axis_cells}; otherwise the full 2x2x2x2x2 grid. *)

val run_cell : ?quick:bool -> Reliability.Chaos.cell -> report
(** Run both worlds for one cell. Frames travel checksummed exactly when
    the cell injects faults, so the clean control cell also pins the
    byte-identical legacy encoding. *)

val run : ?cells:Reliability.Chaos.cell list -> ?quick:bool -> ?seed:int ->
  unit -> t

val zero_violations : t -> bool
val total_violations : t -> int
val pp : Format.formatter -> t -> unit

val perf_records : ?quick:bool -> ?seed:int -> unit -> Perf.record list
(** One portals-bench/2 record per {!axis_cells} entry (ids [CH.<axis>]);
    raises [Failure] if any metered cell violates an invariant. *)
