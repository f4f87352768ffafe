(** Return codes of the Portals 3.0 API.

    Mirrors the [PTL_*] constants of the C interface; API functions return
    [('a, Errors.t) result] instead of an integer code. *)

type t =
  | No_init  (** The interface was not initialised ([PTL_NOINIT]). *)
  | Init_dup  (** Duplicate initialisation ([PTL_INIT_DUP]). *)
  | Invalid_handle  (** Stale or foreign object handle. *)
  | Invalid_arg  (** Malformed argument (range, flag combination). *)
  | No_space  (** Out of resources (tables full, EQ capacity). *)
  | Invalid_ni  (** Unknown network interface. *)
  | Invalid_pt_index  (** Portal table index out of range. *)
  | Invalid_ac_index  (** Access control table index out of range. *)
  | Invalid_md  (** Memory descriptor handle does not resolve. *)
  | Invalid_me  (** Match entry handle does not resolve. *)
  | Invalid_eq  (** Event queue handle does not resolve. *)
  | Invalid_ct  (** Counting-event handle does not resolve. *)
  | Md_in_use  (** Memory descriptor busy (pending reply). *)
  | Eq_empty  (** Non-blocking event read found no event. *)
  | Eq_dropped  (** Events were lost since the last read. *)
  | Process_invalid  (** Target process identifier is not valid. *)
  | Segv  (** Memory region outside the process's address space. *)

val to_string : t -> string
(** The corresponding [PTL_*] constant name. *)

val pp : Format.formatter -> t -> unit

exception Portals_error of t * string
(** Raised by the [_exn] convenience wrappers; carries the failing
    operation's name. *)

val ok_exn : op:string -> ('a, t) result -> 'a
(** [ok_exn ~op r] unwraps [r] or raises {!Portals_error}. *)
