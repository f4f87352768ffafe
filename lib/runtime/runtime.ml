(** The parallel job runtime: machine construction and rank fibers
    ({!World}, included here) plus the Portals job-control protocol
    ({!Control}). *)

include World
module Control = Control
module Liveness = Liveness
module Stack = Stack
