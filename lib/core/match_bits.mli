(** Match bits: the extra addressing component Portals adds to the usual
    (process, buffer, offset) triple (§4.4).

    Every put/get request carries 64 match bits. Each match entry holds a
    pattern of the same width plus {e ignore bits} — the "don't care" mask
    of Figure 3. An entry matches a request when all non-ignored bits
    agree. *)

type t = int64

val zero : t
val of_int64 : int64 -> t
val to_int64 : t -> int64
val of_int : int -> t

val all_ones : t
(** All 64 bits set; as ignore bits this matches anything. *)

val matches : mbits:t -> match_bits:t -> ignore_bits:t -> bool
(** [matches ~mbits ~match_bits ~ignore_bits] is true when the incoming
    request bits [mbits] agree with [match_bits] on every bit clear in
    [ignore_bits]: [(mbits lxor match_bits) land (lnot ignore_bits) = 0]. *)

val field : shift:int -> width:int -> int -> t
(** [field ~shift ~width v] places the low [width] bits of [v] at bit
    position [shift] — a helper for packing structured tags (the MPI layer
    packs context/rank/tag this way). Raises [Invalid_argument] if [v]
    does not fit. *)

val extract : shift:int -> width:int -> t -> int
(** Inverse of {!field}. *)

val mask : shift:int -> width:int -> t
(** A contiguous mask of [width] ones starting at [shift]. *)

val hi32 : t -> int
val lo32 : t -> int
(** The high and low 32 bits, as non-negative immediates. *)

val logor : t -> t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
