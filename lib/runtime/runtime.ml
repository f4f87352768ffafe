(** The parallel job runtime: machine construction and rank fibers
    ({!World}, included here), the {!Scenario} every world is built
    from, plus the Portals job-control protocol ({!Control}). *)

include World
module Scenario = Scenario
module Control = Control
module Liveness = Liveness
module Stack = Stack
