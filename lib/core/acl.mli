(** Access control lists (§4.5).

    An ACL is an array of entries, each pairing a process pattern with a
    portal table index pattern. Every incoming request carries a
    {e cookie} — an index into this array. The request is rejected unless
    the entry at the cookie exists, its process pattern matches the
    requesting process, and its portal pattern matches the requested
    portal index. Wildcards widen entries.

    Per §4.5's initialisation convention, entry 0 admits every process of
    the same parallel application to every portal, entry 1 admits all
    system processes, and the remaining entries deny until configured. *)

type entry = {
  allowed_id : Match_id.t;
  allowed_portal : int option;  (** [None] = any portal table index. *)
}

type t

val create : size:int -> t
(** [size] entries, all denying. Raises [Invalid_argument] if [size < 0]. *)

val set : t -> int -> entry -> (unit, Errors.t) result
(** [Error Invalid_ac_index] when out of range ([PtlACEntry]). *)

val default_cookie_job : int
(** Conventional cookie (0) for peers in the same application. *)

val install_defaults : t -> job_id:Match_id.t -> unit
(** Install the §4.5 convention: entry 0 = processes matching [job_id] on
    any portal; entry 1 = any process on any portal (system services). No
    effect on entries the table is too small to hold. *)

type failure =
  | Bad_cookie  (** Cookie outside the table or entry unset. *)
  | Id_mismatch  (** Requesting process does not match the entry. *)
  | Portal_mismatch  (** Requested portal does not match the entry. *)

val check :
  t -> cookie:int -> src:Simnet.Proc_id.t -> portal_index:int -> (unit, failure) result
