(** Figures 3–4: Portal address translation — the match-list walk — and
    its cost as the list grows.

    The target attaches [k] non-matching entries ahead of one accepting
    entry, then receives a put. Reported per depth: entries examined
    (must be exactly k+1) and the host CPU time the walk charged, for the
    NIC placement (per-entry cost on the LANai) and the kernel placement
    (per-entry cost on the host, §3's address-validation discussion). *)

type row = {
  depth : int;  (** Entries ahead of the match. *)
  entries_walked : int;
  nic_walk_us : float;  (** Walk cost at NIC per-entry rates. *)
  host_walk_us : float;  (** Walk cost at host per-entry rates. *)
  host_stolen_us : float;
      (** Host CPU actually stolen on the kernel placement (includes the
          fixed interrupt + copy costs). *)
}

val default_depths : int list

val run : ?scenario:Runtime.Scenario.t -> ?depths:int list -> unit -> row list

val pp : Format.formatter -> row list -> unit
