(* CRC-32C (Castagnoli), the polynomial iSCSI and modern RDMA NICs use
   for end-to-end frame protection. Slicing-by-8: eight 256-entry tables
   (one 2048-entry array, table [k] at offset [256 * k]) fold eight input
   bytes per step, and a byte-at-a-time loop finishes the tail. Table 0
   is the classic byte table; table [k] advances table [k - 1]'s entry by
   one more zero byte, so the eight lookups of a step together equal
   eight byte steps.

   The table is built once, when the module is initialised, and never
   written after, so shards on any domain read it without
   synchronisation. *)

let table =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0x82F63B78 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 2047 do
    let prev = t.(i - 256) in
    t.(i) <- t.(prev land 0xFF) lxor (prev lsr 8)
  done;
  t

(* Every index below is masked to 8 bits plus a table offset, so it lies
   inside the 2048 entries. *)
let update crc buf ~pos ~len =
  let t = table in
  let crc = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo =
      !crc lxor (Int32.to_int (Bytes.get_int32_le buf !i) land 0xFFFFFFFF)
    in
    let hi = Int32.to_int (Bytes.get_int32_le buf (!i + 4)) land 0xFFFFFFFF in
    crc :=
      Array.unsafe_get t (1792 + (lo land 0xFF))
      lxor Array.unsafe_get t (1536 + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (1280 + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (1024 + (lo lsr 24))
      lxor Array.unsafe_get t (768 + (hi land 0xFF))
      lxor Array.unsafe_get t (512 + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    crc :=
      Array.unsafe_get t ((!crc lxor Char.code (Bytes.unsafe_get buf j)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let digest ?(pos = 0) ?len buf =
  let len = match len with Some l -> l | None -> Bytes.length buf - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Crc32c.digest: range out of bounds";
  update 0 buf ~pos ~len

let digest_string s = digest (Bytes.unsafe_of_string s)
