(** Simulated cluster network substrate. See the individual modules. *)

module Proc_id = Proc_id
module Profile = Profile
module Topology = Topology
module Router = Router
module Link = Link
module Node = Node
module Fault = Fault
module Crc32c = Crc32c
module Frame = Frame
module Fabric = Fabric
module Transport = Transport
module Shard_map = Shard_map
