exception Peer_failed of int

let any_source = -1
let any_tag = -1
let max_tag = (1 lsl 31) - 1
let max_rank = (1 lsl 16) - 1
let max_context = (1 lsl 14) - 1

type protocol = Eager | Rendezvous

type t = { protocol : protocol; context : int; src_rank : int; tag : int }

let matches ?(context = 0) t ~source ~tag =
  t.context = context
  && (source = any_source || source = t.src_rank)
  && (tag = any_tag || tag = t.tag)

let rdvz_header_size = 16

let encode_rdvz_header ~cookie ~total_len =
  let buf = Bytes.create rdvz_header_size in
  Bytes.set_int64_le buf 0 (Int64.of_int cookie);
  Bytes.set_int64_le buf 8 (Int64.of_int total_len);
  buf

let decode_rdvz_header buf ~off =
  if Bytes.length buf - off < rdvz_header_size then
    Error "rendezvous header: truncated"
  else
    Ok
      ( Int64.to_int (Bytes.get_int64_le buf off),
        Int64.to_int (Bytes.get_int64_le buf (off + 8)) )

(* --- GM framing -------------------------------------------------------- *)

type gm_message =
  | Gm_eager of { env : t; payload : bytes; pay_off : int; pay_len : int }
  | Gm_rts of { env : t; cookie : int; total_len : int }
  | Gm_cts of { cookie : int }
  | Gm_data of { cookie : int; payload : bytes; pay_off : int; pay_len : int }

let gm_header_size = 33

let gm_magic = 0x6D

let encode_env buf off env =
  Bytes.set_uint8 buf off (match env.protocol with Eager -> 0 | Rendezvous -> 1);
  Bytes.set_int32_le buf (off + 1) (Int32.of_int env.context);
  Bytes.set_int32_le buf (off + 5) (Int32.of_int env.src_rank);
  Bytes.set_int32_le buf (off + 9) (Int32.of_int env.tag)

let decode_env buf off =
  {
    protocol = (if Bytes.get_uint8 buf off = 0 then Eager else Rendezvous);
    context = Int32.to_int (Bytes.get_int32_le buf (off + 1));
    src_rank = Int32.to_int (Bytes.get_int32_le buf (off + 5));
    tag = Int32.to_int (Bytes.get_int32_le buf (off + 9));
  }

(* One allocation per image: the header is zeroed (fields a kind does
   not use stay 0 on the wire), the payload slice is blitted once. *)
let encode_gm msg =
  let payload, pay_off, pay_len =
    match msg with
    | Gm_eager { payload; pay_off; pay_len; _ }
    | Gm_data { payload; pay_off; pay_len; _ } ->
      (payload, pay_off, pay_len)
    | Gm_rts _ | Gm_cts _ -> (Bytes.empty, 0, 0)
  in
  let buf = Bytes.create (gm_header_size + pay_len) in
  Bytes.fill buf 0 gm_header_size '\x00';
  Bytes.set_uint8 buf 0 gm_magic;
  (match msg with
  | Gm_eager { env; _ } ->
    Bytes.set_uint8 buf 1 0;
    encode_env buf 2 env;
    Bytes.set_int64_le buf 15 (Int64.of_int pay_len)
  | Gm_rts { env; cookie; total_len } ->
    Bytes.set_uint8 buf 1 1;
    encode_env buf 2 env;
    Bytes.set_int64_le buf 15 (Int64.of_int total_len);
    Bytes.set_int64_le buf 23 (Int64.of_int cookie)
  | Gm_cts { cookie } ->
    Bytes.set_uint8 buf 1 2;
    Bytes.set_int64_le buf 23 (Int64.of_int cookie)
  | Gm_data { cookie; _ } ->
    Bytes.set_uint8 buf 1 3;
    Bytes.set_int64_le buf 15 (Int64.of_int pay_len);
    Bytes.set_int64_le buf 23 (Int64.of_int cookie));
  Bytes.blit payload pay_off buf gm_header_size pay_len;
  buf

(* In place, like [Wire.decode_view]: a payload-carrying message views
   [buf] itself, its bytes at [gm_header_size .. len-1]. *)
let decode_gm buf ~len =
  if len < gm_header_size || len > Bytes.length buf then Error "gm message: truncated"
  else if Bytes.get_uint8 buf 0 <> gm_magic then Error "gm message: bad magic"
  else begin
    let pay_len = len - gm_header_size in
    let cookie () = Int64.to_int (Bytes.get_int64_le buf 23) in
    match Bytes.get_uint8 buf 1 with
    | 0 ->
      Ok
        (Gm_eager
           { env = decode_env buf 2; payload = buf; pay_off = gm_header_size; pay_len })
    | 1 ->
      Ok
        (Gm_rts
           {
             env = decode_env buf 2;
             total_len = Int64.to_int (Bytes.get_int64_le buf 15);
             cookie = cookie ();
           })
    | 2 -> Ok (Gm_cts { cookie = cookie () })
    | 3 ->
      Ok
        (Gm_data
           { cookie = cookie (); payload = buf; pay_off = gm_header_size; pay_len })
    | k -> Error (Printf.sprintf "gm message: unknown kind %d" k)
  end

(* --- ibverbs channel framing ------------------------------------------- *)

type iv_view =
  | Iv_eager of { env : t; pay_off : int; pay_len : int }
  | Iv_rts of { env : t; cookie : int; total_len : int }
  | Iv_cts of { cookie : int; rkey : int; len : int }
  | Iv_fin of { cookie : int; length : int }

let iv_header_size = 39

let iv_magic = 0x76 (* 'v' *)

let encode_iv_eager buf ~off ~env ~payload ~pay_off ~pay_len =
  Bytes.set_uint8 buf off iv_magic;
  Bytes.set_uint8 buf (off + 1) 0;
  encode_env buf (off + 2) env;
  Bytes.set_int64_le buf (off + 15) (Int64.of_int pay_len);
  Bytes.blit payload pay_off buf (off + iv_header_size) pay_len;
  iv_header_size + pay_len

let encode_iv_rts buf ~off ~env ~cookie ~total_len =
  Bytes.set_uint8 buf off iv_magic;
  Bytes.set_uint8 buf (off + 1) 1;
  encode_env buf (off + 2) env;
  Bytes.set_int64_le buf (off + 15) (Int64.of_int total_len);
  Bytes.set_int64_le buf (off + 23) (Int64.of_int cookie);
  iv_header_size

let encode_iv_cts buf ~off ~cookie ~rkey ~len =
  Bytes.set_uint8 buf off iv_magic;
  Bytes.set_uint8 buf (off + 1) 2;
  Bytes.set_int64_le buf (off + 15) (Int64.of_int len);
  Bytes.set_int64_le buf (off + 23) (Int64.of_int cookie);
  Bytes.set_int64_le buf (off + 31) (Int64.of_int rkey);
  iv_header_size

let encode_iv_fin buf ~off ~cookie ~length =
  Bytes.set_uint8 buf off iv_magic;
  Bytes.set_uint8 buf (off + 1) 3;
  Bytes.set_int64_le buf (off + 15) (Int64.of_int length);
  Bytes.set_int64_le buf (off + 23) (Int64.of_int cookie);
  iv_header_size

let decode_iv buf ~off ~len =
  if len < iv_header_size then Error "iv message: truncated"
  else if Bytes.get_uint8 buf off <> iv_magic then Error "iv message: bad magic"
  else begin
    let f15 () = Int64.to_int (Bytes.get_int64_le buf (off + 15)) in
    let cookie () = Int64.to_int (Bytes.get_int64_le buf (off + 23)) in
    let rkey () = Int64.to_int (Bytes.get_int64_le buf (off + 31)) in
    match Bytes.get_uint8 buf (off + 1) with
    | 0 ->
      let pay_len = f15 () in
      if iv_header_size + pay_len > len then Error "iv eager: truncated payload"
      else
        Ok
          (Iv_eager
             { env = decode_env buf (off + 2); pay_off = off + iv_header_size; pay_len })
    | 1 -> Ok (Iv_rts { env = decode_env buf (off + 2); cookie = cookie (); total_len = f15 () })
    | 2 -> Ok (Iv_cts { cookie = cookie (); rkey = rkey (); len = f15 () })
    | 3 -> Ok (Iv_fin { cookie = cookie (); length = f15 () })
    | k -> Error (Printf.sprintf "iv message: unknown kind %d" k)
  end
