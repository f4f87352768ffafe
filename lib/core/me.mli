(** Match entries and match lists (Figure 3).

    Each portal table entry identifies a match list. A match entry (ME)
    carries the match criteria — a source process pattern and 64 match
    bits with an ignore mask — plus a list of memory descriptors. During
    translation only the {e first} descriptor of a matching entry is
    considered (Figure 4); if it rejects, the walk moves to the next match
    entry. *)

type t

val create :
  ?unlink:Md.unlink_policy ->
  match_id:Match_id.t ->
  match_bits:Match_bits.t ->
  ignore_bits:Match_bits.t ->
  unit ->
  t
(** A fresh, empty match entry. [unlink] (default [Retain]) controls
    whether the entry is removed from the match list when its MD list
    empties (Figure 4's cascade). The criteria are stored as immediate
    integers (32-bit halves of the bits and of the care mask, with the
    source pattern in 31 bits each for nid and pid), so a process id in
    [match_id] must be non-negative and below 2^31 - 1:
    [Invalid_argument] otherwise. *)

val match_id : t -> Match_id.t
val match_bits : t -> Match_bits.t
val ignore_bits : t -> Match_bits.t
val unlink_policy : t -> Md.unlink_policy

val set_match_bits : t -> Match_bits.t -> unit
(** Replace the match bits; the ignore bits and the source pattern stay. *)

val criteria_match : t -> src:Simnet.Proc_id.t -> mbits:Match_bits.t -> bool
(** Do the source process and match bits satisfy this entry? *)

val matches_split : t -> nid:int -> pid:int -> hi:int -> lo:int -> bool
(** {!criteria_match} with the request already split: [hi] and [lo] are
    the high and low 32 bits of the request's match bits. A match-list
    walk splits the request once and tests every entry with this. *)

val md_handles : t -> Handle.md list
(** Attached memory descriptors, first (head) to last. *)

val first_md : t -> Handle.md option

val attach_md : t -> Handle.md -> unit
(** Append a descriptor at the tail of the MD list. *)

val remove_md : t -> Handle.md -> bool
(** Remove a descriptor; false if absent. *)

val md_count : t -> int
val is_empty : t -> bool
