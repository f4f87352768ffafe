(** §4.8's drop accounting, exercised end to end: every documented reason
    for discarding an incoming message is triggered once against a live
    interface and read back from the per-reason counters. *)

type row = { reason : string; count : int }

val run : ?scenario:Runtime.Scenario.t -> unit -> row list
(** One row per {!Portals.Ni.drop_reason}, in declaration order; each
    count should be exactly 1 (the harness triggers each reason once). *)

val pp : Format.formatter -> row list -> unit
