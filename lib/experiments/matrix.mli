(** The cross-stack benchmark matrix (MX):
    {e transports} {b ×} {e axes} = [{portals, gm, rtscts, ibverbs}] ×
    [{latency, bandwidth, overlap, loss-goodput, congestion-goodput}].

    Every cell runs the {e same} MPI-level workload, built over a
    different stack through the one {!Transport.S} seam
    ({!Runtime.Stack}) — the API-redesign payoff in one grid: the
    paper's application-bypass argument shows up in the [overlap]
    column, Liu et al.'s fast path in the [latency] row gap, and the
    degraded-fabric axes exercise every stack over the reliability shim
    and a contended torus.

    Workloads: small-message ping-pong (mean RTT, µs); one-way 256 KiB
    stream (payload MB/s); fig6-style overlap availability (% of the
    cheaper leg hidden); a fixed eager stream over a 2%-Bernoulli lossy
    fabric with the reliability shim (MB/s); all-to-all on a 2D torus
    (aggregate MB/s). All deterministic for a fixed seed. *)

type cell = {
  transport : string;
  axis : string;
  value : float;
  unit_ : string;
  sim_time_us : float;
}

type t = { cells : cell list }

val axis_names : string list
val transport_names : string list
(** = {!Runtime.Stack.names}. *)

val run :
  ?transports:string list ->
  ?axes:string list ->
  ?quick:bool ->
  ?seed:int ->
  unit ->
  t
(** Run the selected cells (default: the full grid). Raises
    [Invalid_argument] on an unknown transport or axis name — CLIs
    should validate against {!transport_names} and {!axis_names}
    first. [quick] shrinks every workload to smoke-test size. *)

val find_cell : t -> transport:string -> axis:string -> cell option
val pp : Format.formatter -> t -> unit

val record_id : transport:string -> axis:string -> string
(** ["MX.<transport>.<axis>"], the perf-record id of one cell. *)

val perf_records :
  ?transports:string list ->
  ?axes:string list ->
  ?quick:bool ->
  ?seed:int ->
  unit ->
  Perf.record list
(** Meter every selected cell as a {!Perf.record} (portals-bench/2), id
    {!record_id} — what the bench harness appends to its report and the
    CI gate compares against [bench/baseline.json]. *)
