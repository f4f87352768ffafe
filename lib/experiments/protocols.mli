(** Figures 1 and 2: the put and get data movement protocols, regenerated
    as event timelines from a live two-node exchange.

    Figure 1 (put): the initiator sends a put request carrying the data;
    the target deposits it and optionally acknowledges. Figure 2 (get):
    the initiator sends a get request; the target replies with the data.
    The timelines list every completion event both processes observe, in
    simulated-time order — including which side each event belongs to,
    making the one-sided completion structure visible. *)

type entry = {
  time_us : float;
  side : [ `Initiator | `Target ];
  kind : string;  (** SENT/PUT/ACK/GET/REPLY *)
  mlength : int;
}

type timeline = { figure : int; operation : string; entries : entry list }

val run_put :
  ?scenario:Runtime.Scenario.t ->
  ?message_size:int -> ?transport:Runtime.transport_kind -> unit -> timeline
(** Figure 1: a put with acknowledgment (default 4 KB, MCP placement). *)

val run_get :
  ?scenario:Runtime.Scenario.t ->
  ?message_size:int -> ?transport:Runtime.transport_kind -> unit -> timeline
(** Figure 2: a get and its reply. *)

val pp : Format.formatter -> timeline -> unit
