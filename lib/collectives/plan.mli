(** The collective plan: every decision the host engine ({!Collectives})
    and the NIC engine ({!Nic_offload}) must agree on, as pure functions
    of the group size [n], the [root] and a [rank].

    The host engine walks the plan with send/recv; the NIC engine
    compiles the same plan into triggered chains. Because both read one
    tree, they fold reduction children in the same order and so return
    byte-identical results, floating point included.

    Each query returns a rank, or [-1] when there is none, so walking a
    plan allocates nothing. Rounds are numbered from 0; all three
    algorithms finish within [rounds n] rounds. *)

val bits : seq:int -> round:int -> src:int -> Portals.Match_bits.t
(** The name of one collective message: the sequence number (which
    collective call), the round within its algorithm and the sending
    rank, in 40, 8 and 16 bits from the top down. Raises
    [Invalid_argument] when a field does not fit. *)

val rounds : int -> int
(** [rounds n] is ceil(log2 n) (0 for [n <= 1]): the dissemination
    barrier's round count and the binomial trees' depth. *)

(** {1 Dissemination barrier} *)

val dissemination_dst : n:int -> rank:int -> round:int -> int
(** The rank [rank] sends to in [round]: [rank + 2^round] mod [n]. *)

val dissemination_src : n:int -> rank:int -> round:int -> int
(** The rank [rank] hears from in [round]; the inverse of
    {!dissemination_dst}. *)

(** {1 Binomial broadcast}

    On virtual ranks [v = (rank - root) mod n], v receives from
    [v - 2^j] in round j, j being v's highest set bit, and then sends to
    [v + 2^k] in every later round k that stays inside the group. *)

val bcast_round : n:int -> root:int -> rank:int -> int
(** The round [rank]'s data arrives in; [-1] at the root. *)

val bcast_parent : n:int -> root:int -> rank:int -> int
(** The rank [rank] receives from; [-1] at the root. *)

val bcast_child : n:int -> root:int -> rank:int -> round:int -> int
(** The rank [rank] sends to in [round], or [-1]. *)

(** {1 Binomial reduction}

    The broadcast tree mirrored: v absorbs [v + 2^k] in every round k
    below its lowest set bit j, then sends its accumulator to [v - 2^j]
    in round j. Children are folded in ascending round order. *)

val reduce_round : n:int -> root:int -> rank:int -> int
(** The round [rank] sends its accumulator in; [-1] at the root. *)

val reduce_parent : n:int -> root:int -> rank:int -> int
(** The rank [rank] sends its accumulator to; [-1] at the root. *)

val reduce_child : n:int -> root:int -> rank:int -> round:int -> int
(** The rank whose contribution [rank] folds in [round], or [-1]. *)
