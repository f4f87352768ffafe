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
  let buf = Bytes.create (header_size + t.pay_len) in
  Bytes.set_uint8 buf 0 magic;
  Bytes.set_uint8 buf 1 (kind_code t.kind);
  Bytes.set_int64_le buf 2 (Int64.of_int t.msg_id);
  Bytes.set_int64_le buf 10 (Int64.of_int t.total_len);
  Bytes.set_int64_le buf 18 (Int64.of_int t.offset);
  Bytes.blit t.payload t.pay_off buf header_size t.pay_len;
  buf

let decode buf =
  if Bytes.length buf < header_size then Error "rtscts frame: truncated header"
  else if Bytes.get_uint8 buf 0 <> magic then Error "rtscts frame: bad magic"
  else begin
    match kind_of_code (Bytes.get_uint8 buf 1) with
    | None -> Error "rtscts frame: unknown kind"
    | Some kind ->
      Ok
        {
          kind;
          msg_id = Int64.to_int (Bytes.get_int64_le buf 2);
          total_len = Int64.to_int (Bytes.get_int64_le buf 10);
          offset = Int64.to_int (Bytes.get_int64_le buf 18);
          payload = buf;
          pay_off = header_size;
          pay_len = Bytes.length buf - header_size;
        }
  end

let pp ppf t =
  Format.fprintf ppf "%s id=%d total=%d off=%d payload=%d"
    (kind_to_string t.kind) t.msg_id t.total_len t.offset
    t.pay_len
