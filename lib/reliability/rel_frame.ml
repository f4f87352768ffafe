type t =
  | Data of { seq : int; payload : bytes }
  | Ack of { cum_ack : int; sack : int64 }

let magic = 0xA7
let header_size = 10 (* magic + kind + seq *)
let checksum_size = 4

(* Kinds 0/1 are the unprotected (legacy) Data/Ack encodings; kinds 2/3
   are the same images plus a CRC-32C trailer over everything before it.
   Like [Wire], the frame is self-describing but the caller's
   [~integrity] (its fabric's bit) decides what encoders emit — and with
   it on, unprotected frames are rejected so corruption of the kind byte
   cannot downgrade a frame out of coverage. *)
let kind_data = 0
let kind_ack = 1
let kind_data_crc = 2
let kind_ack_crc = 3

let seal buf =
  let body = Bytes.length buf - checksum_size in
  Bytes.set_int32_le buf body
    (Int32.of_int (Simnet.Crc32c.digest ~pos:0 ~len:body buf))

let encode ~integrity frame =
  let ck = if integrity then checksum_size else 0 in
  let buf =
    match frame with
    | Data { seq; payload } ->
      let buf = Bytes.create (header_size + Bytes.length payload + ck) in
      Bytes.set_uint8 buf 0 magic;
      Bytes.set_uint8 buf 1 (if ck > 0 then kind_data_crc else kind_data);
      Bytes.set_int64_le buf 2 (Int64.of_int seq);
      Bytes.blit payload 0 buf header_size (Bytes.length payload);
      buf
    | Ack { cum_ack; sack } ->
      let buf = Bytes.create (18 + ck) in
      Bytes.set_uint8 buf 0 magic;
      Bytes.set_uint8 buf 1 (if ck > 0 then kind_ack_crc else kind_ack);
      Bytes.set_int64_le buf 2 (Int64.of_int cum_ack);
      Bytes.set_int64_le buf 10 sack;
      buf
  in
  if ck > 0 then seal buf;
  buf

let check_crc buf =
  let body = Bytes.length buf - checksum_size in
  let stored = Int32.to_int (Bytes.get_int32_le buf body) land 0xFFFFFFFF in
  if Simnet.Crc32c.digest ~pos:0 ~len:body buf = stored then Ok ()
  else Error "rel frame: checksum mismatch"

let decode ~integrity buf =
  let len = Bytes.length buf in
  if len < 2 then Error "rel frame: truncated header"
  else if Bytes.get_uint8 buf 0 <> magic then Error "rel frame: bad magic"
  else
    let kind = Bytes.get_uint8 buf 1 in
    let protected_ = kind = kind_data_crc || kind = kind_ack_crc in
    if (not protected_) && (kind = kind_data || kind = kind_ack) && integrity
    then Error "rel frame: unprotected frame while integrity enabled"
    else if protected_ && len < header_size + checksum_size then
      Error "rel frame: truncated checksum trailer"
    else
      let crc = if protected_ then check_crc buf else Ok () in
      match crc with
      | Error e -> Error e
      | Ok () ->
        if kind = kind_data || kind = kind_data_crc then
          if len < header_size then Error "rel frame: truncated header"
          else
            let tail = if protected_ then checksum_size else 0 in
            Ok
              (Data
                 {
                   seq = Int64.to_int (Bytes.get_int64_le buf 2);
                   payload = Bytes.sub buf header_size (len - header_size - tail);
                 })
        else if kind = kind_ack || kind = kind_ack_crc then
          if len < 18 + (if protected_ then checksum_size else 0) then
            Error "rel frame: truncated ack"
          else
            Ok
              (Ack
                 {
                   cum_ack = Int64.to_int (Bytes.get_int64_le buf 2);
                   sack = Bytes.get_int64_le buf 10;
                 })
        else Error "rel frame: unknown kind"

let sack_mem ~sack ~cum_ack seq =
  let i = seq - cum_ack - 1 in
  i >= 0 && i < 64 && Int64.logand sack (Int64.shift_left 1L i) <> 0L

let sack_of_seqs ~cum_ack seqs =
  List.fold_left
    (fun acc seq ->
      let i = seq - cum_ack - 1 in
      if i >= 0 && i < 64 then Int64.logor acc (Int64.shift_left 1L i) else acc)
    0L seqs

let pp ppf = function
  | Data { seq; payload } ->
    Format.fprintf ppf "DATA seq=%d len=%d" seq (Bytes.length payload)
  | Ack { cum_ack; sack } ->
    Format.fprintf ppf "ACK cum=%d sack=%Lx" cum_ack sack
