(** Process identifiers with wildcards.

    Match entries and access control entries name peers with optional
    [PTL_NID_ANY]/[PTL_PID_ANY] wildcards: "a target process can choose to
    accept message operations from any specific process" (§4.2) or leave
    either component open. *)

type component = Any | Id of int

type t = { nid : component; pid : component }

val any : t
(** Matches every process. *)

val of_proc : Simnet.Proc_id.t -> t
(** Exactly this process, no wildcards. *)

val make : nid:component -> pid:component -> t

val matches : t -> Simnet.Proc_id.t -> bool
(** Component-wise equality with [Any] matching everything. *)

val equal : t -> t -> bool
