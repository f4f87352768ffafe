(* The simulator's layers, as sets of compiled module names. A sampled
   stack frame is charged to the layer of its module; [None] marks frames
   that are charged to their caller instead (the standard library, and the
   benchmark's own sampling machinery). *)

type t =
  | Engine
  | Shard
  | Simnet
  | Portals
  | Reliability
  | Stacks
  | Mpi
  | Collectives
  | Onesided
  | Runtime
  | Workload
  | Other

let all =
  [
    Engine;
    Shard;
    Simnet;
    Portals;
    Reliability;
    Stacks;
    Mpi;
    Collectives;
    Onesided;
    Runtime;
    Workload;
    Other;
  ]

let count = List.length all

let index = function
  | Engine -> 0
  | Shard -> 1
  | Simnet -> 2
  | Portals -> 3
  | Reliability -> 4
  | Stacks -> 5
  | Mpi -> 6
  | Collectives -> 7
  | Onesided -> 8
  | Runtime -> 9
  | Workload -> 10
  | Other -> 11

let name = function
  | Engine -> "engine"
  | Shard -> "shard"
  | Simnet -> "simnet"
  | Portals -> "portals"
  | Reliability -> "reliability"
  | Stacks -> "stacks"
  | Mpi -> "mpi"
  | Collectives -> "collectives"
  | Onesided -> "onesided"
  | Runtime -> "runtime"
  | Workload -> "workload"
  | Other -> "other"

(* [lib] is a dune library's wrapper module: it matches the library's main
   module and every [Lib__Sub] module. *)
let in_lib lib m =
  m = lib
  || String.length m > String.length lib + 2
     && String.sub m 0 (String.length lib + 2) = lib ^ "__"

let has_prefix p m =
  String.length m >= String.length p && String.sub m 0 (String.length p) = p

let of_module m =
  if
    has_prefix "Stdlib" m || has_prefix "Camlinternal" m || m = "Std_exit"
    || m = "Runtime_events"
    || m = "Bench_suite__Sampler"
    || m = "Bench_suite__Gc_time"
  then None
  else if m = "Sim_engine__Shard" || m = "Simnet__Shard_map" then Some Shard
  else if in_lib "Sim_engine" m then Some Engine
  else if in_lib "Simnet" m then Some Simnet
  else if in_lib "Portals" m then Some Portals
  else if in_lib "Reliability" m then Some Reliability
  else if
    m = "Transport" || in_lib "Rtscts" m || in_lib "Gm" m || in_lib "Ibverbs" m
  then Some Stacks
  else if in_lib "Mpi" m then Some Mpi
  else if in_lib "Collectives" m then Some Collectives
  else if in_lib "Onesided" m then Some Onesided
  else if in_lib "Runtime" m then Some Runtime
  else if
    in_lib "Experiments" m || in_lib "Bench_suite" m || has_prefix "Dune__exe" m
  then Some Workload
  else Some Other

(* A frame name as [Printexc.Slot.name] gives it, e.g.
   ["Portals__Ni.deliver.(fun)"]: the module is everything before the
   first dot. *)
let of_frame name =
  match String.index_opt name '.' with
  | Some i -> of_module (String.sub name 0 i)
  | None -> of_module name
