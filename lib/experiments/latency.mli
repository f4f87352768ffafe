(** Zero-length ping-pong latency (§3: the in-progress Portals 3.0 MCP
    "is achieving less than 20 usec for a zero-length ping-pong latency
    test").

    Raw Portals put/put between two nodes; the reply is triggered by the
    PUT event, not by polling. Reported per placement: the NIC-offload
    MCP, the interrupt-driven kernel module (RTS/CTS), and the TCP
    reference implementation. *)

type row = {
  placement : string;
  rtt_us : float;  (** Mean round trip, microseconds. *)
  one_way_us : float;
}

val run_one :
  ?scenario:Runtime.Scenario.t ->
  ?profile:Simnet.Profile.t ->
  ?label:string ->
  ?message_size:int ->
  ?iterations:int ->
  Runtime.transport_kind ->
  row
(** Measure one placement (default zero-length, 50 iterations after one
    warmup round trip); [profile] overrides the transport's default
    hardware profile, [label] the row name. *)

val run :
  ?scenario:Runtime.Scenario.t ->
  ?message_size:int -> ?iterations:int -> unit -> row list
(** The three Myrinet placements plus the Puma/ASCI-Red heritage
    platform (§2) and the TCP reference implementation (§3), fastest
    first. *)

val pp : Format.formatter -> row list -> unit
