(** The application-bypass experiment of Table 5 / Figure 5.

    Two nodes iterate:
    {v
    pre-post several non-blocking receives;
    barrier;
    post a batch of sends;
    work (fixed loop iterations);
    get time A;
    wait for the batch of messages;
    get time B;
    repeat;
    v}

    Both nodes run the loop; only one performs work. The measurement is
    B - A on the working node: how much message handling {e remained} to
    be done after the work interval. A batch is ten equal-sized messages
    (the paper used 50 KB) exchanged in both directions. *)

type params = {
  backend : [ `Portals | `Gm ];
  transport : Runtime.transport_kind;
  message_size : int;  (** Bytes per message (paper: 50_000). *)
  batch : int;  (** Messages per direction per iteration (paper: 10). *)
  iterations : int;  (** Repetitions averaged over. *)
  work : Sim_engine.Time_ns.t;  (** The work interval. *)
  tests_during_work : int;
      (** MPI test calls sprinkled into the work loop (the paper's side
          experiment used 3; 0 = none). *)
}

val default_params : params
(** Portals backend on the kernel (RTS/CTS) transport — the configuration
    the paper actually measured — 10 x 50 KB, 4 iterations, no work, no
    sprinkled tests. *)

type result = {
  mean_wait : float;  (** Mean B - A on the working node, microseconds. *)
  max_wait : float;
  mean_work_elapsed : float;
      (** Wall time the work interval actually took on the working node,
          microseconds — exceeds the nominal interval when receive
          processing steals host cycles. *)
  metrics : Sim_engine.Metrics.Snapshot.t;
      (** The world's full registry after the run: the measured
          ["fig.wait_us"]/["fig.work_us"] summaries plus every fabric
          instrument (NI drops, CPU occupancy, link utilisation, EQ
          depth, protocol counters). *)
  spans : Sim_engine.Trace.span list;
      (** Structured trace spans; empty unless [capture_trace]. *)
}

val run :
  ?scenario:Runtime.Scenario.t -> ?capture_trace:bool -> params -> result
(** Execute the experiment in a fresh simulated world. With
    [capture_trace:true] the world's trace is enabled and the retained
    spans are returned in the result (default [false]: tracing stays a
    single disabled branch per event). *)
