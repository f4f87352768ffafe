(** Goodput and completion time versus wire loss, reliable vs raw.

    For each loss rate in the sweep a fixed message stream is pushed
    through two fabrics built from the same seed: one with the
    {!Reliability} protocol shimmed under the wire, one raw. The reliable
    fabric must deliver every message (zero application-visible loss as
    long as the retry budget holds) at the price of retransmissions and
    completion time; the raw fabric keeps its speed and silently loses a
    matching fraction of the stream. Each [(loss, seed)] point replays
    bit-exactly. *)

type mode_result = {
  delivered : int;  (** Messages the application actually received. *)
  completion_us : float;  (** Time of the last delivery (quiescence). *)
  goodput_mbps : float;
      (** Delivered payload bytes over completion time, in MB/s. *)
  retransmits : int;  (** Always 0 for the raw fabric. *)
  retries_exhausted : int;
}

type row = { loss : float; reliable : mode_result; raw : mode_result }

val default_losses : float list
(** [0; 0.01; 0.02; 0.05; 0.1] — up to the 10% the acceptance sweep
    demands. *)

val run :
  ?losses:float list ->
  ?seeds:int list ->
  ?msgs:int ->
  ?size:int ->
  ?registry:Sim_engine.Metrics.t ->
  unit ->
  row list
(** One row per loss rate, seed axis averaged out. Defaults: the
    {!default_losses} grid, seeds [[1; 2; 3]], 200 messages of 1 KiB.
    When [registry] is given, each point's full metrics snapshot is
    absorbed into it labelled with [loss], [seed] and [mode] so the
    retransmit counters, ack-RTT summaries and window series of every run
    survive into the caller's [--metrics] output. *)

val pp : Format.formatter -> row list -> unit
