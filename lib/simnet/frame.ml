type t = { hdr : bytes; buf : bytes; off : int; len : int }

let v ~hdr buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Frame.v: view out of range";
  { hdr; buf; off; len }

let of_bytes buf = { hdr = Bytes.empty; buf; off = 0; len = Bytes.length buf }
let length t = Bytes.length t.hdr + t.len

let to_bytes t =
  if Bytes.length t.hdr = 0 && t.off = 0 && t.len = Bytes.length t.buf then t.buf
  else begin
    let h = Bytes.length t.hdr in
    let out = Bytes.create (h + t.len) in
    Bytes.blit t.hdr 0 out 0 h;
    Bytes.blit t.buf t.off out h t.len;
    out
  end

let check t pos n name =
  if pos < 0 || n < 0 || pos > length t - n then
    invalid_arg ("Frame." ^ name ^ ": out of range")

let prefix t n =
  check t 0 n "prefix";
  if Bytes.length t.hdr >= n then t.hdr else to_bytes t

let after t n =
  check t 0 n "after";
  let h = Bytes.length t.hdr in
  if n = h then { t with hdr = Bytes.empty }
  else if n < h then { t with hdr = Bytes.sub t.hdr n (h - n) }
  else { hdr = Bytes.empty; buf = t.buf; off = t.off + n - h; len = t.len - (n - h) }

let crc32c crc t ~pos ~len =
  check t pos len "crc32c";
  let h = Bytes.length t.hdr in
  let in_hdr = max 0 (min len (h - pos)) in
  let crc =
    if in_hdr > 0 then Crc32c.update crc t.hdr ~pos ~len:in_hdr else crc
  in
  let rest = len - in_hdr in
  if rest > 0 then
    Crc32c.update crc t.buf ~pos:(t.off + max 0 (pos - h)) ~len:rest
  else crc

let flip_byte b i mask = Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor mask)

let flip t ~bit =
  let total = length t in
  if total = 0 then t
  else begin
    let i = bit / 8 mod total and mask = 1 lsl (bit mod 8) in
    let h = Bytes.length t.hdr in
    if i < h then begin
      let hdr = Bytes.copy t.hdr in
      flip_byte hdr i mask;
      { t with hdr }
    end
    else begin
      let buf = Bytes.sub t.buf t.off t.len in
      flip_byte buf (i - h) mask;
      { t with buf; off = 0 }
    end
  end

let truncate t ~keep =
  let keep = max 0 (min keep (length t)) in
  let h = Bytes.length t.hdr in
  if keep >= h then { t with len = keep - h }
  else { hdr = Bytes.sub t.hdr 0 keep; buf = t.buf; off = t.off; len = 0 }
