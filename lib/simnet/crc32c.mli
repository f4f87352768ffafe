(** CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected) — the checksum
    iSCSI and RDMA-era NICs compute in hardware. Wire codecs ([Wire],
    the reliability shim's frames) append it to detect in-flight
    corruption end to end. Values are non-negative 32-bit ints.

    Computed slicing-by-8: eight bytes per step through one 2048-entry
    table built when the module is initialised, then byte at a time over
    the last [len mod 8] bytes. The values are those of the plain
    byte-at-a-time algorithm. *)

val digest : ?pos:int -> ?len:int -> bytes -> int
(** Checksum of [buf[pos .. pos+len)] (default: the whole buffer).
    Raises [Invalid_argument] on an out-of-bounds range. *)

val digest_string : string -> int

val update : int -> bytes -> pos:int -> len:int -> int
(** Incremental form: [update crc buf ~pos ~len] extends [crc] (start
    from [digest Bytes.empty = 0]'s identity, i.e. pass [0]). *)
