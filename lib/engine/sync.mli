(** Blocking primitives for fibers, built on {!Scheduler.suspend}.

    Each primitive wakes waiters at the simulated time of the signalling
    operation, in FIFO order. *)

module Ivar : sig
  (** Write-once cell. Reading blocks until the value is written. *)

  type 'a t

  val create : Scheduler.t -> 'a t
  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. *)

  val is_filled : 'a t -> bool
  val peek : 'a t -> 'a option
  val read : 'a t -> 'a
  (** Fiber-only: blocks until filled. *)
end

module Waitq : sig
  (** Condition-variable-like wait queue. [wait] blocks; [broadcast] wakes
      all current waiters. There is no separate mutex — the simulation is
      cooperatively scheduled, so state checks and [wait] cannot be
      interleaved by other fibers. As with any condition variable, callers
      must re-check their predicate on wakeup. *)

  type t

  val create : ?name:string -> Scheduler.t -> t
  val wait : t -> unit
  val broadcast : t -> unit
  val waiters : t -> int
end

module Mailbox : sig
  (** Unbounded FIFO queue; [recv] blocks when empty. *)

  type 'a t

  val create : ?name:string -> Scheduler.t -> 'a t
  val send : 'a t -> 'a -> unit
  val recv : 'a t -> 'a
  (** Fiber-only: blocks until a message is available. *)

  val try_recv : 'a t -> 'a option
  val length : 'a t -> int
end

module Semaphore : sig
  type t

  val create : ?name:string -> Scheduler.t -> int -> t
  (** [create sched n] has [n] initial units; [n >= 0]. *)

  val acquire : t -> unit
  (** Fiber-only: blocks while no unit is available. FIFO fairness. *)

  val release : t -> unit
  val available : t -> int
end

module Barrier : sig
  (** Reusable fiber barrier for [n] parties. *)

  type t

  val create : ?name:string -> Scheduler.t -> int -> t
  val await : t -> unit
  (** Fiber-only: blocks until [n] fibers have called [await] in the
      current generation, then releases them all. *)
end
