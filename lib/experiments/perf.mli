(** Machine-readable performance records for the bench harness.

    One {!record} per experiment id (F1–F6 figures, L1 latency, B1
    bandwidth, S1–S3 scaling, A1/A2 accounting and ablations, R1
    reliability, C1 crash-restart), metered as a delta of
    {!Sim_engine.Scheduler.global_totals} around the experiment's run.

    The sim-side fields — [sim_events], [fibers], [sim_time_us] — are
    deterministic for a fixed seed: two runs of the same build must agree
    on them exactly, and the baseline gate compares nothing else.
    [wall_s], [events_per_sec] and [alloc_words] describe the host and
    the compiler, and are recorded but not gated. *)

type record = {
  id : string;
  wall_s : float;  (** Wall-clock seconds for this experiment's run. *)
  sim_events : int;  (** Scheduler events the run processed. *)
  fibers : int;  (** Fibers the run spawned. *)
  sim_time_us : float;  (** Simulated time the run advanced through. *)
  events_per_sec : float;  (** [sim_events /. wall_s]; 0 for instant runs. *)
  alloc_words : int;
      (** Words the run allocated, net of minor-to-major promotions. *)
}

val meter : ?domains:int -> id:string -> (unit -> 'a) -> record
(** Meter one runner as a delta of the process-wide scheduler totals:
    best of three repeats (after a [Gc.compact] each), so host noise
    does not masquerade as a slow-down. [domains] (default 1) is how many
    domains the runner spawns; above 1, allocation is read from the
    all-domain [Gc.quick_stat] rather than this domain's [Gc.counters].
    Other experiment families (e.g. the benchmark matrix) build their
    records with this. *)

val all : ?quick:bool -> unit -> record list
(** Run and meter every experiment. [quick] (default false) shrinks each
    experiment's parameters to smoke-test size. *)

val pp : Format.formatter -> record list -> unit

(** {1 JSON} *)

val to_json : record list -> string
(** [{"schema": "portals-bench/2", "ocaml": <version>, "records": [...]}],
    one record per line. *)

val of_json_string : string -> (record list, string) result
(** Read back exactly what {!to_json} writes. A wrong schema, a line that
    is not a record, a truncated document or one without records is an
    [Error]. *)

val write_json : path:string -> record list -> unit
val read_json : path:string -> (record list, string) result

(** {1 Baseline gate} *)

type drift =
  | Changed of {
      id : string;
      field : string;
      baseline : string;
      current : string;
    }  (** A gated field differs; values as the writer prints them. *)
  | Missing of string  (** In the baseline, but not produced by this run. *)
  | Extra of string  (** Produced by this run, but not in the baseline. *)

val drift : baseline:record list -> current:record list -> drift list
(** Every difference in [sim_events], [fibers] and [sim_time_us] (at the
    JSON's printed precision) between matching ids, plus every id present
    on one side only. Empty means the gate passes. *)

val pp_drift : Format.formatter -> drift list -> unit
