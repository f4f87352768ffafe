type kind = Eager | Rts | Cts | Data

let kind_to_string = function
  | Eager -> "EAGER"
  | Rts -> "RTS"
  | Cts -> "CTS"
  | Data -> "DATA"

type t = {
  kind : kind;
  msg_id : int;
  total_len : int;
  offset : int;
  payload : bytes;
  pay_off : int;
  pay_len : int;
}

let magic = 0x5C
let header_size = 26

let kind_code = function Eager -> 0 | Rts -> 1 | Cts -> 2 | Data -> 3

let kind_of_code = function
  | 0 -> Some Eager
  | 1 -> Some Rts
  | 2 -> Some Cts
  | 3 -> Some Data
  | _ -> None

let encode t =
  let hdr = Bytes.create header_size in
  Bytes.set_uint8 hdr 0 magic;
  Bytes.set_uint8 hdr 1 (kind_code t.kind);
  Bytes.set_int64_le hdr 2 (Int64.of_int t.msg_id);
  Bytes.set_int64_le hdr 10 (Int64.of_int t.total_len);
  Bytes.set_int64_le hdr 18 (Int64.of_int t.offset);
  Simnet.Frame.v ~hdr t.payload ~off:t.pay_off ~len:t.pay_len

let decode (f : Simnet.Frame.t) =
  if Simnet.Frame.length f < header_size then Error "rtscts frame: truncated header"
  else begin
    let b = Simnet.Frame.prefix f header_size in
    if Bytes.get_uint8 b 0 <> magic then Error "rtscts frame: bad magic"
    else
      match kind_of_code (Bytes.get_uint8 b 1) with
      | None -> Error "rtscts frame: unknown kind"
      | Some kind ->
        (* The frame's bytes past the header are its view when the header
           is exactly this codec's, as sent; any other split (a damaged
           frame) is flattened. *)
        let payload, pay_off, pay_len =
          if Bytes.length f.Simnet.Frame.hdr = header_size then
            (f.Simnet.Frame.buf, f.Simnet.Frame.off, f.Simnet.Frame.len)
          else
            let rest = Simnet.Frame.to_bytes (Simnet.Frame.after f header_size) in
            (rest, 0, Bytes.length rest)
        in
        Ok
          {
            kind;
            msg_id = Int64.to_int (Bytes.get_int64_le b 2);
            total_len = Int64.to_int (Bytes.get_int64_le b 10);
            offset = Int64.to_int (Bytes.get_int64_le b 18);
            payload;
            pay_off;
            pay_len;
          }
  end
