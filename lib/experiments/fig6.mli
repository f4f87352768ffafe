(** Figure 6: duration of waiting for messages as a function of the work
    interval, for MPICH/GM and MPICH over Portals 3.0, with 50 KB
    messages.

    The paper's result: MPICH/GM makes essentially no progress until the
    application re-enters the library (a flat curve at the full transfer
    cost), while the Portals implementation completes virtually all
    message handling inside a large enough work interval (a curve
    declining to near zero). A third series reproduces the side
    experiment: three MPI test calls inside the work loop let MPICH/GM
    recover most of the progress. *)

type series = {
  label : string;
  points : (float * float) list;
      (** (work interval ms, mean remaining wait ms) *)
}

type t = {
  message_size : int;
  batch : int;
  series : series list;
  metrics : Sim_engine.Metrics.Snapshot.t;
      (** Aggregate registry snapshot: a ["fig6.wait_ms"] series per
          configuration (labelled [("config", label)]) mirroring
          [series], plus each configuration's full world registry —
          NI drop counters, CPU occupancy, link utilisation, EQ-depth
          series, protocol counters — absorbed from the largest work
          interval's run under the same configuration label. *)
  traces : (string * Sim_engine.Trace.span list) list;
      (** Per-configuration trace spans from the largest work interval's
          run; empty unless [capture_trace]. Feed to
          {!Sim_engine.Trace.Chrome.to_string} for chrome://tracing. *)
}

val work_intervals_ms : float list
(** The default sweep: 0 to 50 ms. *)

val run :
  ?scenario:Runtime.Scenario.t ->
  ?message_size:int ->
  ?batch:int ->
  ?iterations:int ->
  ?work_ms:float list ->
  ?capture_trace:bool ->
  unit ->
  t
(** Regenerate the figure's data: MPICH/GM (offload transport, as GM ran
    on the NIC), MPICH/Portals 3.0 on the interrupt-driven kernel path
    (the implementation the paper measured), MPICH/GM with three test
    calls, and — beyond the paper — MPICH/Portals on the NIC-offload
    placement. *)

val pp : Format.formatter -> t -> unit
(** Render all series as aligned columns, one row per work interval. *)
