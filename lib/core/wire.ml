type op =
  | Put_request
  | Ack
  | Get_request
  | Reply
  | Atomic_request
  | Atomic_reply

let op_to_string = function
  | Put_request -> "PUT_REQUEST"
  | Ack -> "ACK"
  | Get_request -> "GET_REQUEST"
  | Reply -> "REPLY"
  | Atomic_request -> "ATOMIC_REQUEST"
  | Atomic_reply -> "ATOMIC_REPLY"

let pp_op ppf op = Format.pp_print_string ppf (op_to_string op)

type aop = Fetch_add | Swap | Cas

let aop_to_string = function
  | Fetch_add -> "FETCH_ADD"
  | Swap -> "SWAP"
  | Cas -> "CAS"

let pp_aop ppf a = Format.pp_print_string ppf (aop_to_string a)
let aop_code = function Fetch_add -> 0 | Swap -> 1 | Cas -> 2

let aop_of_code = function
  | 0 -> Some Fetch_add
  | 1 -> Some Swap
  | 2 -> Some Cas
  | _ -> None

let all_aops = [ Fetch_add; Swap; Cas ]

type atomic = { aop : aop; operand : int64; compare : int64 }

type t = {
  op : op;
  ack_requested : bool;
  triggered : bool;
      (* Provenance: the message was emitted by a pre-armed triggered
         chain on the initiator's NI, not by a host fiber. Travels in bit
         1 of the flags byte; untriggered frames are byte-identical to the
         pre-extension format. *)
  initiator : Simnet.Proc_id.t;
  target : Simnet.Proc_id.t;
  portal_index : int;
  cookie : int;
  match_bits : Match_bits.t;
  offset : int;
  md_handle : Handle.md;
  eq_handle : Handle.eq;
  incarnation : int;
  length : int;
  data : bytes;
  atomic : atomic option;
}

let magic = 0xB3
let version = 0x30
let header_size = 72

(* Version 0x31 frames are version 0x30 frames plus a CRC-32C trailer
   over everything before it (header, extension block, payload). The
   version byte keeps the format self-describing — a decoder accepts
   either — while the caller's [~integrity] (its fabric's bit) decides
   what encoders emit, so fault-free runs stay byte-identical to the
   pre-integrity format. With [~integrity:true], decoders also {e
   reject} unprotected 0x30 frames: otherwise one bit flip in the
   version byte would downgrade a protected frame out of coverage. *)
let version_checksummed = 0x31
let checksum_size = 4

(* Atomic messages carry an extension block after the fixed header:
   1 byte atomic opcode, 8 bytes operand, 8 bytes compare value. In a
   reply the operand slot carries the fetched (pre-operation) value, so
   atomics never need a payload — the manipulated word always fits the
   block. *)
let atomic_block_size = 17
let atomic_word_size = 8
let atomic_operand_offset = header_size + 1

let ext_size = function
  | Atomic_request | Atomic_reply -> atomic_block_size
  | Put_request | Ack | Get_request | Reply -> 0

let op_code = function
  | Put_request -> 0
  | Ack -> 1
  | Get_request -> 2
  | Reply -> 3
  | Atomic_request -> 4
  | Atomic_reply -> 5

let op_of_code = function
  | 0 -> Some Put_request
  | 1 -> Some Ack
  | 2 -> Some Get_request
  | 3 -> Some Reply
  | 4 -> Some Atomic_request
  | 5 -> Some Atomic_reply
  | _ -> None

let put_request ?(ack_requested = true) ?(triggered = false) ?(incarnation = 0)
    ~initiator ~target ~portal_index ~cookie ~match_bits ~offset
    ~md_handle ~eq_handle ~data () =
  {
    op = Put_request;
    ack_requested;
    triggered;
    initiator;
    target;
    portal_index;
    cookie;
    match_bits;
    offset;
    md_handle;
    eq_handle;
    incarnation;
    length = Bytes.length data;
    data;
    atomic = None;
  }

let ack_of_put ?incarnation t ~mlength =
  if t.op <> Put_request then invalid_arg "Wire.ack_of_put: not a put request";
  {
    t with
    op = Ack;
    ack_requested = false;
    triggered = false;
    initiator = t.target;
    target = t.initiator;
    incarnation = Option.value incarnation ~default:t.incarnation;
    length = mlength;
    data = Bytes.empty;
  }

let get_request ?(incarnation = 0) ~initiator ~target ~portal_index ~cookie
    ~match_bits ~offset ~md_handle ~rlength () =
  {
    op = Get_request;
    ack_requested = false;
    triggered = false;
    initiator;
    target;
    portal_index;
    cookie;
    match_bits;
    offset;
    md_handle;
    eq_handle = Handle.none;
    incarnation;
    length = rlength;
    data = Bytes.empty;
    atomic = None;
  }

let reply_of_get ?incarnation t ~mlength ~data =
  if t.op <> Get_request then invalid_arg "Wire.reply_of_get: not a get request";
  if Bytes.length data <> mlength then
    invalid_arg "Wire.reply_of_get: data length disagrees with mlength";
  {
    t with
    op = Reply;
    initiator = t.target;
    target = t.initiator;
    incarnation = Option.value incarnation ~default:t.incarnation;
    length = mlength;
    data;
  }

let atomic_request ?(incarnation = 0) ~aop ~operand ?(compare = 0L) ~initiator
    ~target ~portal_index ~cookie ~match_bits ~offset ~md_handle () =
  {
    op = Atomic_request;
    ack_requested = false;
    triggered = false;
    initiator;
    target;
    portal_index;
    cookie;
    match_bits;
    offset;
    md_handle;
    eq_handle = Handle.none;
    incarnation;
    length = atomic_word_size;
    data = Bytes.empty;
    atomic = Some { aop; operand; compare };
  }

let atomic_reply_of_request ?incarnation t ~fetched =
  if t.op <> Atomic_request then
    invalid_arg "Wire.atomic_reply_of_request: not an atomic request";
  let a =
    match t.atomic with
    | Some a -> a
    | None -> invalid_arg "Wire.atomic_reply_of_request: missing atomic block"
  in
  {
    t with
    op = Atomic_reply;
    initiator = t.target;
    target = t.initiator;
    incarnation = Option.value incarnation ~default:t.incarnation;
    (* The request may be a [decode_view] whose [data] aliases the whole
       wire image; the reply carries its value in the atomic block, so
       the payload must be dropped or [encode] would append the alias. *)
    data = Bytes.empty;
    atomic = Some { a with operand = fetched };
  }

let fetched_value t =
  match (t.op, t.atomic) with
  | Atomic_reply, Some a -> Some a.operand
  | _ -> None

(* Payload bytes a frame of [op] carries after its header. *)
let data_length op length =
  match op with
  | Put_request | Reply -> length
  | Ack | Get_request | Atomic_request | Atomic_reply -> 0

(* The one header writer: every encoder goes through it, whether it holds
   a [t] ({!write_header}) or writes a request straight from its fields
   ({!image}). *)
let write_fields buf op ~ack_requested ~triggered
    ~(initiator : Simnet.Proc_id.t) ~(target : Simnet.Proc_id.t)
    ~portal_index ~cookie ~match_bits ~offset ~md_handle ~eq_handle
    ~incarnation ~length =
  Bytes.set_uint8 buf 0 magic;
  Bytes.set_uint8 buf 1 version;
  Bytes.set_uint8 buf 2 (op_code op);
  Bytes.set_uint8 buf 3
    ((if ack_requested then 1 else 0) lor if triggered then 2 else 0);
  Bytes.set_int32_le buf 4 (Int32.of_int initiator.Simnet.Proc_id.nid);
  Bytes.set_int32_le buf 8 (Int32.of_int initiator.Simnet.Proc_id.pid);
  Bytes.set_int32_le buf 12 (Int32.of_int target.Simnet.Proc_id.nid);
  Bytes.set_int32_le buf 16 (Int32.of_int target.Simnet.Proc_id.pid);
  Bytes.set_int32_le buf 20 (Int32.of_int portal_index);
  Bytes.set_int32_le buf 24 (Int32.of_int cookie);
  Bytes.set_int64_le buf 28 (Match_bits.to_int64 match_bits);
  Bytes.set_int64_le buf 36 (Int64.of_int offset);
  Bytes.set_int64_le buf 44 (Int64.of_int (Handle.to_wire md_handle));
  Bytes.set_int64_le buf 52 (Int64.of_int (Handle.to_wire eq_handle));
  Bytes.set_int32_le buf 60 (Int32.of_int incarnation);
  Bytes.set_int64_le buf 64 (Int64.of_int length)

let write_atomic buf aop ~operand ~compare =
  Bytes.set_uint8 buf header_size (aop_code aop);
  Bytes.set_int64_le buf atomic_operand_offset operand;
  Bytes.set_int64_le buf (header_size + 9) compare

let write_header buf t =
  write_fields buf t.op ~ack_requested:t.ack_requested ~triggered:t.triggered
    ~initiator:t.initiator ~target:t.target ~portal_index:t.portal_index
    ~cookie:t.cookie ~match_bits:t.match_bits ~offset:t.offset
    ~md_handle:t.md_handle ~eq_handle:t.eq_handle ~incarnation:t.incarnation
    ~length:t.length;
  match t.atomic with
  | None ->
    if ext_size t.op <> 0 then
      invalid_arg "Wire.encode: atomic operation without an atomic block"
  | Some a ->
    if ext_size t.op = 0 then
      invalid_arg "Wire.encode: atomic block on a non-atomic operation";
    write_atomic buf a.aop ~operand:a.operand ~compare:a.compare

let create_frame ~integrity op ~data =
  Bytes.create
    (header_size + ext_size op + data
    + if integrity then checksum_size else 0)

let image ~integrity op ~ack_requested ~triggered ~initiator ~target
    ~portal_index ~cookie ~match_bits ~offset ~md_handle ~eq_handle
    ~incarnation ~length =
  let buf = create_frame ~integrity op ~data:(data_length op length) in
  write_fields buf op ~ack_requested ~triggered ~initiator ~target
    ~portal_index ~cookie ~match_bits ~offset ~md_handle ~eq_handle
    ~incarnation ~length;
  buf

(* A 0x31 frame: mark the version and CRC the body into the trailer. *)
let seal ~integrity buf =
  if integrity then begin
    Bytes.set_uint8 buf 1 version_checksummed;
    let body = Bytes.length buf - checksum_size in
    Bytes.set_int32_le buf body
      (Int32.of_int (Simnet.Crc32c.digest ~pos:0 ~len:body buf))
  end

let encode ~integrity t =
  let buf = create_frame ~integrity t.op ~data:(Bytes.length t.data) in
  write_header buf t;
  Bytes.blit t.data 0 buf (header_size + ext_size t.op) (Bytes.length t.data);
  seal ~integrity buf;
  buf

type decode_error =
  | Bad_magic
  | Bad_version of int
  | Bad_operation of int
  | Bad_atomic_op of int
  | Truncated of { expected : int; got : int }
  | Bad_checksum of { expected : int; got : int }

let pp_decode_error ppf = function
  | Bad_magic -> Format.pp_print_string ppf "bad magic byte"
  | Bad_version v -> Format.fprintf ppf "unsupported version 0x%02x" v
  | Bad_operation op -> Format.fprintf ppf "unknown operation code %d" op
  | Bad_atomic_op c -> Format.fprintf ppf "unknown atomic opcode %d" c
  | Truncated { expected; got } ->
    Format.fprintf ppf "truncated message: need %d bytes, have %d" expected got
  | Bad_checksum { expected; got } ->
    Format.fprintf ppf "checksum mismatch: computed 0x%08x, frame says 0x%08x"
      expected got

(* The receive hot path blits payload straight from the wire image into
   the matched memory descriptor, so the decoder never copies it out: a
   decoded message aliases the whole image as [data]; its payload bytes
   live at [header_size ..] (all payload-carrying operations have no
   extension block). *)
let i32 buf pos = Int32.to_int (Bytes.get_int32_le buf pos)
let i64 buf pos = Int64.to_int (Bytes.get_int64_le buf pos)

(* The address at [pos], as [known] when the wire names the same one. *)
let proc_id buf pos (known : Simnet.Proc_id.t) =
  let nid = i32 buf pos and pid = i32 buf (pos + 4) in
  if nid = known.Simnet.Proc_id.nid && pid = known.Simnet.Proc_id.pid then known
  else Simnet.Proc_id.make ~nid ~pid

let checksum_error buf ~body =
  let computed = Simnet.Crc32c.digest ~pos:0 ~len:body buf in
  let stored = Int32.to_int (Bytes.get_int32_le buf body) land 0xFFFFFFFF in
  if computed = stored then None
  else Some (Bad_checksum { expected = computed; got = stored })

let decode_view ~integrity ~src ~dst buf =
  let got = Bytes.length buf in
  if got < header_size then Error (Truncated { expected = header_size; got })
  else if Bytes.get_uint8 buf 0 <> magic then Error Bad_magic
  else begin
    let v = Bytes.get_uint8 buf 1 in
    if
      (not (v = version || v = version_checksummed))
      || (v = version && integrity)
    then Error (Bad_version v)
    else begin
      match op_of_code (Bytes.get_uint8 buf 2) with
      | None -> Error (Bad_operation (Bytes.get_uint8 buf 2))
      | Some op ->
        let length = i64 buf 64 in
        let ext = ext_size op in
        let data_len = data_length op length in
        let ck = if v = version_checksummed then checksum_size else 0 in
        (* [data_len] comes off the wire, so guard the arithmetic: a
           corrupted length must surface as an error, not an overflow or
           a [Bytes.sub] exception. *)
        if data_len < 0 || data_len > got || got < header_size + ext + data_len + ck
        then
          Error
            (Truncated
               { expected = header_size + ext + max data_len 0 + ck; got })
        else begin
          match
            if ck = 0 then None
            else checksum_error buf ~body:(header_size + ext + data_len)
          with
          | Some e -> Error e
          | None ->
            let aop =
              if ext = 0 then None else aop_of_code (Bytes.get_uint8 buf header_size)
            in
            match aop with
            | None when ext <> 0 ->
              Error (Bad_atomic_op (Bytes.get_uint8 buf header_size))
            | None | Some _ ->
              Ok
                {
                  op;
                  ack_requested = Bytes.get_uint8 buf 3 land 1 = 1;
                  triggered = Bytes.get_uint8 buf 3 land 2 <> 0;
                  initiator = proc_id buf 4 src;
                  target = proc_id buf 12 dst;
                  portal_index = i32 buf 20;
                  cookie = i32 buf 24;
                  match_bits = Match_bits.of_int64 (Bytes.get_int64_le buf 28);
                  offset = i64 buf 36;
                  md_handle = Handle.of_wire (i64 buf 44);
                  eq_handle = Handle.of_wire (i64 buf 52);
                  incarnation = i32 buf 60;
                  length;
                  data = buf;
                  atomic =
                    (match aop with
                    | None -> None
                    | Some aop ->
                      Some
                        {
                          aop;
                          operand = Bytes.get_int64_le buf atomic_operand_offset;
                          compare = Bytes.get_int64_le buf (header_size + 9);
                        });
                }
        end
    end
  end

let field_inventory = function
  | Put_request ->
    [
      ("operation", "Indicates a put request");
      ("flags", "Ack-requested bit and triggered-provenance bit");
      ("initiator", "Local process id");
      ("incarnation", "Initiator's incarnation (fences stale senders)");
      ("target", "Target process id");
      ("portal index", "Target Portal table entry");
      ("cookie", "Access control table entry");
      ("match bits", "Matching criteria");
      ("offset", "Offset within the target memory");
      ("memory desc", "Local memory region for an ack");
      ("event queue", "Local event queue for the ack event");
      ("length", "Length of the data");
      ("data", "Payload");
    ]
  | Ack ->
    [
      ("operation", "Indicates an acknowledgment");
      ("initiator", "Echoed from the put request (swapped)");
      ("target", "Echoed from the put request (swapped)");
      ("portal index", "Echoed from the put request");
      ("match bits", "Echoed from the put request");
      ("offset", "Echoed from the put request");
      ("memory desc", "Echoed from the put request");
      ("event queue", "Echoed: where to record the ack event");
      ("manipulated length", "Bytes actually deposited by the put");
    ]
  | Get_request ->
    [
      ("operation", "Indicates a get request");
      ("initiator", "Local process id");
      ("incarnation", "Initiator's incarnation (fences stale senders)");
      ("target", "Target process id");
      ("portal index", "Target Portal table entry");
      ("cookie", "Access control table entry");
      ("match bits", "Matching criteria");
      ("offset", "Offset within the target memory");
      ("memory desc", "Local memory region for the reply (no event queue \
                       handle: the reply routes via the memory descriptor)");
      ("length", "Length of the data requested");
    ]
  | Reply ->
    [
      ("operation", "Indicates a reply");
      ("initiator", "Echoed from the get request (swapped)");
      ("target", "Echoed from the get request (swapped)");
      ("memory desc", "Echoed from the get request");
      ("manipulated length", "Bytes actually read by the get");
      ("data", "Payload");
    ]
  | Atomic_request ->
    [
      ("operation", "Indicates an atomic request");
      ("atomic opcode", "FETCH_ADD, SWAP or CAS");
      ("initiator", "Local process id");
      ("incarnation", "Initiator's incarnation (fences stale senders)");
      ("target", "Target process id");
      ("portal index", "Target Portal table entry");
      ("cookie", "Access control table entry");
      ("match bits", "Matching criteria");
      ("offset", "Offset of the 64-bit word within the target memory");
      ("memory desc", "Local memory region for the fetched-value reply \
                       (routes like a get reply)");
      ("operand", "Addend (FETCH_ADD) or new value (SWAP/CAS)");
      ("compare", "Expected value (CAS only)");
      ("length", "Width of the operated word (always 8)");
    ]
  | Atomic_reply ->
    [
      ("operation", "Indicates a fetched-value reply");
      ("atomic opcode", "Echoed from the atomic request");
      ("initiator", "Echoed from the atomic request (swapped)");
      ("target", "Echoed from the atomic request (swapped)");
      ("memory desc", "Echoed from the atomic request");
      ("fetched value", "The word's value before the operation, in the \
                         operand slot");
      ("length", "Width of the fetched word (always 8)");
    ]

let pp ppf t =
  Format.fprintf ppf
    "%a %a->%a pt=%d ck=%d bits=%a off=%d md=%a eq=%a inc=%d len=%d%s" pp_op
    t.op Simnet.Proc_id.pp t.initiator Simnet.Proc_id.pp t.target
    t.portal_index t.cookie Match_bits.pp t.match_bits t.offset Handle.pp
    t.md_handle Handle.pp t.eq_handle t.incarnation t.length
    ((if t.ack_requested then " +ack" else "")
    ^ if t.triggered then " +trig" else "");
  match t.atomic with
  | None -> ()
  | Some a ->
    Format.fprintf ppf " %a operand=%Ld compare=%Ld" pp_aop a.aop a.operand
      a.compare
