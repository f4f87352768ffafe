(** The cross-stack benchmark matrix (MX):
    {e transports} {b ×} {e axes} = [{portals, gm, rtscts, ibverbs}] ×
    [{latency, bandwidth, overlap, loss-goodput, congestion-goodput}].

    Every cell runs the {e same} MPI-level workload, built over a
    different stack on the one MPI engine ({!Runtime.Stack}) — the
    API-redesign payoff in one grid: the paper's application-bypass
    argument shows up in the [overlap] column, Liu et al.'s fast path
    in the [latency] row gap, and the degraded-fabric axes exercise
    every stack over the reliability shim and a contended torus.

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
  ?scenario:Runtime.Scenario.t ->
  ?transports:string list ->
  ?axes:string list ->
  ?quick:bool ->
  unit ->
  t
(** Run the selected cells (default: the full grid) under [scenario]
    (default {!Runtime.Scenario.default}); the loss-goodput cell takes
    only the scenario's seed and scripts its own loss. Raises
    [Invalid_argument] on an unknown transport or axis name — CLIs
    should validate against {!transport_names} and {!axis_names}
    first. [quick] shrinks every workload to smoke-test size. *)

val pp : Format.formatter -> t -> unit

val perf_records :
  ?scenario:Runtime.Scenario.t ->
  ?transports:string list ->
  ?axes:string list ->
  ?quick:bool ->
  unit ->
  Perf.record list
(** Meter every selected cell as a {!Perf.record} (portals-bench/2), id
    {!record_id} — what the bench harness appends to its report and the
    CI gate compares against [bench/baseline.json]. *)
