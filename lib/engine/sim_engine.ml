(** Entry point of the simulation engine library. See the individual
    modules for documentation. *)

module Time_ns = Time_ns
module Prng = Prng
module Event_heap = Event_heap
module Metrics = Metrics
module Report = Report
module Scheduler = Scheduler
module Shard = Shard
module Sync = Sync
module Cpu = Cpu
module Trace = Trace
