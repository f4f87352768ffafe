(** The experiment registry: every experiment named once.

    One {!entry} per experiment, in the order [portals_repro all] prints
    them. The CLI derives from it its subcommands (name, doc, parameter
    flags), the [all] report (every entry with a {!section}) and the
    [bench] record list (every entry's records, in registry order); the
    determinism test runs every entry's quick default at 1 and 2
    domains. *)

type observed = {
  metrics : Sim_engine.Metrics.Snapshot.t;
      (** The registry snapshot the run already keeps; empty if none. *)
  traces : (string * Sim_engine.Trace.span list) list;
      (** Trace spans per configuration label, captured only when asked
          for; empty if the experiment has none. *)
}

type job = {
  print : trace:bool -> Format.formatter -> observed;
      (** Run the experiment and print its result. [trace] asks for
          spans where the experiment can capture them. Raises [Failure]
          when the run fails its own check (chaos violations, a par
          digest mismatch, coll engines disagreeing). *)
  records : unit -> Perf.record list;
      (** Meter the experiment as portals-bench/2 records ([] if it has
          none). Independent of [print]: it runs its own worlds. *)
}

type section = {
  title : string;  (** The header [all] prints above the entry. *)
  quick : bool;  (** Whether [all] runs the quick default. *)
}

type entry = {
  name : string;  (** The subcommand name. *)
  doc : string;
  section : section option;  (** [None]: not part of [all]. *)
  default : Runtime.Scenario.t -> quick:bool -> job;
      (** The default run; [quick] shrinks it (and its records) to
          smoke-test size where the experiment has a smaller shape. *)
  flags : (Runtime.Scenario.t -> job) Cmdliner.Term.t;
      (** The subcommand's own parameter flags, yielding its job. *)
}

val entries : entry list
