module Frame = Simnet.Frame

type t =
  | Data of { seq : int; payload : Frame.t }
  | Ack of { cum_ack : int; sack : int64 }
  | Forward of { upto : int }

let magic = 0xA7
let header_size = 10 (* magic + kind + seq *)
let checksum_size = 4

(* Kinds 0/1 are the unprotected (legacy) Data/Ack encodings; kinds 2/3
   are the same frames plus a CRC-32C. Kinds 4/5 are the Forward frame
   without and with it. Like [Wire], the frame is self-describing but
   the caller's [~integrity] (its fabric's bit) decides what encoders
   emit — and with it on, unprotected frames are rejected so corruption
   of the kind byte cannot downgrade a frame out of coverage.

   A Data frame is a header plus a view of the payload it carries, so
   its checksum sits in the header, right after the seq, and covers the
   bytes before and after it; Ack and Forward frames are all header and
   keep theirs as a trailer. The checksum is as long either way, so a
   frame's length does not depend on where it sits. *)
let kind_data = 0
let kind_ack = 1
let kind_data_crc = 2
let kind_ack_crc = 3
let kind_fwd = 4
let kind_fwd_crc = 5

let seal buf =
  let body = Bytes.length buf - checksum_size in
  Bytes.set_int32_le buf body
    (Int32.of_int (Simnet.Crc32c.digest ~pos:0 ~len:body buf))

(* A Data frame's checksum: over its first [header_size] bytes (in
   [fixed], a buffer that holds them), then over what follows the
   checksum field. *)
let data_crc f fixed =
  let body = header_size + checksum_size in
  Frame.crc32c
    (Simnet.Crc32c.update 0 fixed ~pos:0 ~len:header_size)
    f ~pos:body ~len:(Frame.length f - body)

let encode_data ~integrity ~seq (payload : Frame.t) =
  let ck = if integrity then checksum_size else 0 in
  let inner = Bytes.length payload.Frame.hdr in
  let hdr = Bytes.create (header_size + ck + inner) in
  Bytes.set_uint8 hdr 0 magic;
  Bytes.set_uint8 hdr 1 (if ck > 0 then kind_data_crc else kind_data);
  Bytes.set_int64_le hdr 2 (Int64.of_int seq);
  Bytes.blit payload.Frame.hdr 0 hdr (header_size + ck) inner;
  let f =
    Frame.v ~hdr payload.Frame.buf ~off:payload.Frame.off ~len:payload.Frame.len
  in
  if ck > 0 then
    Bytes.set_int32_le hdr header_size (Int32.of_int (data_crc f hdr));
  f

let encode_ack ~integrity ~cum_ack ~sack =
  let ck = if integrity then checksum_size else 0 in
  let buf = Bytes.create (18 + ck) in
  Bytes.set_uint8 buf 0 magic;
  Bytes.set_uint8 buf 1 (if ck > 0 then kind_ack_crc else kind_ack);
  Bytes.set_int64_le buf 2 (Int64.of_int cum_ack);
  Bytes.set_int64_le buf 10 sack;
  if ck > 0 then seal buf;
  Frame.of_bytes buf

let encode_forward ~integrity ~upto =
  let ck = if integrity then checksum_size else 0 in
  let buf = Bytes.create (header_size + ck) in
  Bytes.set_uint8 buf 0 magic;
  Bytes.set_uint8 buf 1 (if ck > 0 then kind_fwd_crc else kind_fwd);
  Bytes.set_int64_le buf 2 (Int64.of_int upto);
  if ck > 0 then seal buf;
  Frame.of_bytes buf

let get_int32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF

(* Fixed fields are read with [Frame.prefix]: a Data frame as sent holds
   them in its own header, an Ack or Forward frame is one flat buffer. *)
let decode_data ~protected_ f =
  let ck = if protected_ then checksum_size else 0 in
  let len = Frame.length f in
  if len < header_size + ck then
    Error
      (if protected_ then "rel frame: truncated checksum trailer"
       else "rel frame: truncated header")
  else
    let b = Frame.prefix f (header_size + ck) in
    if protected_ && data_crc f b <> get_int32 b header_size then
      Error "rel frame: checksum mismatch"
    else
      Ok
        (Data
           {
             seq = Int64.to_int (Bytes.get_int64_le b 2);
             payload = Frame.after f (header_size + ck);
           })

let decode_control ~protected_ ~kind b =
  let len = Bytes.length b in
  let ck = if protected_ then checksum_size else 0 in
  if protected_ && len < header_size + checksum_size then
    Error "rel frame: truncated checksum trailer"
  else if
    protected_
    && Simnet.Crc32c.digest ~pos:0 ~len:(len - ck) b <> get_int32 b (len - ck)
  then Error "rel frame: checksum mismatch"
  else if kind = kind_ack || kind = kind_ack_crc then
    if len < 18 + ck then Error "rel frame: truncated ack"
    else
      Ok
        (Ack
           {
             cum_ack = Int64.to_int (Bytes.get_int64_le b 2);
             sack = Bytes.get_int64_le b 10;
           })
  else if len < header_size + ck then Error "rel frame: truncated forward"
  else Ok (Forward { upto = Int64.to_int (Bytes.get_int64_le b 2) })

let decode ~integrity f =
  if Frame.length f < 2 then Error "rel frame: truncated header"
  else
    let b = Frame.prefix f 2 in
    let kind = Bytes.get_uint8 b 1 in
    let protected_ =
      kind = kind_data_crc || kind = kind_ack_crc || kind = kind_fwd_crc
    in
    if Bytes.get_uint8 b 0 <> magic then Error "rel frame: bad magic"
    else if kind > kind_fwd_crc then Error "rel frame: unknown kind"
    else if (not protected_) && integrity then
      Error "rel frame: unprotected frame while integrity enabled"
    else if kind = kind_data || kind = kind_data_crc then
      decode_data ~protected_ f
    else decode_control ~protected_ ~kind (Frame.to_bytes f)

let sack_mem ~sack ~cum_ack seq =
  let i = seq - cum_ack - 1 in
  i >= 0 && i < 64 && Int64.logand sack (Int64.shift_left 1L i) <> 0L

let sack_of_seqs ~cum_ack seqs =
  List.fold_left
    (fun acc seq ->
      let i = seq - cum_ack - 1 in
      if i >= 0 && i < 64 then Int64.logor acc (Int64.shift_left 1L i) else acc)
    0L seqs
