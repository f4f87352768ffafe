(** Measurement collection for simulation runs.

    Two collector kinds:
    {ul
    {- [Counter]: monotonically increasing integer (messages sent, drops).}
    {- [Summary]: running mean/min/max/stddev of float samples (latencies).}} *)

module Counter : sig
  type t

  val create : ?name:string -> unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
  val name : t -> string
end

module Summary : sig
  type t

  val create : ?name:string -> unit -> t
  val observe : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** Mean of observed samples; 0 if none. *)

  val min : t -> float
  val max : t -> float
  val stddev : t -> float
  (** Population standard deviation; 0 for fewer than two samples. *)

  val total : t -> float
  val reset : t -> unit
  val pp : Format.formatter -> t -> unit
end
