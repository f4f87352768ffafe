type options = {
  op_put : bool;
  op_get : bool;
  manage_remote : bool;
  truncate : bool;
  ack_disable : bool;
}

let default_options =
  { op_put = true; op_get = true; manage_remote = true; truncate = false;
    ack_disable = false }

type threshold = Infinite | Count of int
type unlink_policy = Unlink | Retain

(* One piece of the described region: [seg_len] bytes of [seg_buf]
   starting at [seg_off]. A plain descriptor has one segment; a
   gather/scatter descriptor (the paper's §7 extension) has several, and
   operations see their logical concatenation. *)
type segment = { mutable seg_buf : bytes; seg_off : int; seg_len : int }

(* A reservation is a segment whose bytes do not exist yet ([seg_buf]
   shorter than [seg_len]; validated segments never are). Descriptors
   over it share the record, so the first touch through any of them
   creates the bytes for all. *)
type reservation = segment

let reserve length =
  if length < 0 then invalid_arg "Md.reserve: negative length";
  { seg_buf = Bytes.empty; seg_off = 0; seg_len = length }

let backed seg = Bytes.length seg.seg_buf >= seg.seg_len

(* Demand-zero paging, except that the contents are unspecified, as
   with [Bytes.create]. *)
let back seg = if not (backed seg) then seg.seg_buf <- Bytes.create seg.seg_len

type t = {
  iov : segment array;
  md_len : int; (* sum of segment lengths *)
  opts : options;
  mutable thresh : threshold;
  unlink : unlink_policy;
  md_eq : Event.Queue.t option;
  md_eq_handle : Handle.eq;
  md_user_ptr : int;
  mutable loc_offset : int;
  mutable pending_ops : int;
}

let check_threshold = function
  | Count n when n < 0 -> invalid_arg "Md.create: negative threshold"
  | Count _ | Infinite -> ()

let make ~options ~threshold ~unlink ~eq ~eq_handle ~user_ptr iov =
  check_threshold threshold;
  let md_len = Array.fold_left (fun acc s -> acc + s.seg_len) 0 iov in
  {
    iov;
    md_len;
    opts = options;
    thresh = threshold;
    unlink;
    md_eq = eq;
    md_eq_handle = eq_handle;
    md_user_ptr = user_ptr;
    loc_offset = 0;
    pending_ops = 0;
  }

let create ?(options = default_options) ?(threshold = Infinite) ?(unlink = Retain)
    ?eq ?(eq_handle = Handle.none) ?(user_ptr = 0) ?length buffer =
  let seg_len =
    match length with
    | None -> Bytes.length buffer
    | Some l ->
      if l < 0 || l > Bytes.length buffer then
        invalid_arg "Md.create: length outside the buffer";
      l
  in
  make ~options ~threshold ~unlink ~eq ~eq_handle ~user_ptr
    [| { seg_buf = buffer; seg_off = 0; seg_len } |]

let create_iovec ?(options = default_options) ?(threshold = Infinite)
    ?(unlink = Retain) ?eq ?(eq_handle = Handle.none) ?(user_ptr = 0) segments =
  if segments = [] then invalid_arg "Md.create_iovec: empty vector";
  let validate (buffer, off, len) =
    if off < 0 || len < 0 || off + len > Bytes.length buffer then
      invalid_arg "Md.create_iovec: segment outside its buffer";
    { seg_buf = buffer; seg_off = off; seg_len = len }
  in
  make ~options ~threshold ~unlink ~eq ~eq_handle ~user_ptr
    (Array.of_list (List.map validate segments))

let create_reserved ?(options = default_options) ?(threshold = Infinite)
    ?(unlink = Retain) ?eq ?(eq_handle = Handle.none) ?(user_ptr = 0) r =
  make ~options ~threshold ~unlink ~eq ~eq_handle ~user_ptr [| r |]

let buffer t =
  match t.iov with
  | [| seg |] ->
    back seg;
    seg.seg_buf
  | _ -> invalid_arg "Md.buffer: gather/scatter descriptor (use read)"

let reserved_bytes r =
  back r;
  r.seg_buf

let whole_buffer t =
  match t.iov with
  | [| seg |] when seg.seg_off = 0 ->
    back seg;
    if Bytes.length seg.seg_buf = seg.seg_len then Some seg.seg_buf else None
  | _ -> None

let segment_count t = Array.length t.iov
let length t = t.md_len
let options t = t.opts
let threshold t = t.thresh
let unlink_policy t = t.unlink
let eq t = t.md_eq
let eq_handle t = t.md_eq_handle
let user_ptr t = t.md_user_ptr
let local_offset t = t.loc_offset
let rewind t = t.loc_offset <- 0
let active t = match t.thresh with Infinite -> true | Count n -> n > 0
let pending t = t.pending_ops
let incr_pending t = t.pending_ops <- t.pending_ops + 1

let decr_pending t =
  if t.pending_ops <= 0 then invalid_arg "Md.decr_pending: no pending operation";
  t.pending_ops <- t.pending_ops - 1

type operation = Op_put | Op_get | Op_atomic

type reject_reason = Inactive | Op_disabled | Too_long

let pp_reject ppf r =
  Format.pp_print_string ppf
    (match r with
    | Inactive -> "inactive"
    | Op_disabled -> "operation disabled"
    | Too_long -> "too long without truncate")

(* A verdict is an immediate: the manipulated length when the request is
   accepted, a negative code when it is not, so a match-list walk
   allocates nothing per descriptor it tries. *)
let inactive = -1
let op_disabled = -2
let too_long = -3

let reason v =
  if v = inactive then Inactive
  else if v = op_disabled then Op_disabled
  else if v = too_long then Too_long
  else invalid_arg "Md.reason: an accepting verdict"

let base t ~roffset = if t.opts.manage_remote then roffset else t.loc_offset

let accepts t ~op ~rlength ~roffset =
  if not (active t) then inactive
  else if
    match op with
    | Op_put -> not t.opts.op_put
    | Op_get -> not t.opts.op_get
    (* An atomic both reads and writes the word, so the region must
       permit both operation classes. *)
    | Op_atomic -> not (t.opts.op_put && t.opts.op_get)
  then op_disabled
  else begin
    let offset = base t ~roffset in
    let avail = t.md_len - offset in
    if offset < 0 then
      (* Only a damaged or hostile request names a region before the
         descriptor's start. *)
      too_long
    else if rlength <= avail then rlength
    else if op = Op_atomic then
      (* Read-modify-write of a partial word is meaningless: atomics
         never truncate. *)
      too_long
    else if t.opts.truncate then
      (* An offset past the end truncates to an empty transfer at the
         region's end, keeping offset + mlength within bounds. *)
      max avail 0
    else too_long
  end

let landing t ~roffset = min (base t ~roffset) t.md_len

let consume_threshold t =
  match t.thresh with
  | Infinite -> ()
  | Count 0 -> ()
  | Count n -> t.thresh <- Count (n - 1)

let consume t ~offset ~mlength =
  consume_threshold t;
  if not t.opts.manage_remote then t.loc_offset <- offset + mlength

(* Copy [len] bytes between the logical range [offset, offset+len) of
   [t] and [ext] from [ext_off], into the region when [into_md]. A plain
   loop over the segments, so a copy allocates nothing. *)
let transfer t ~offset ~len ~into_md ext ext_off =
  if len > 0 then begin
    if offset < 0 || offset + len > t.md_len then
      invalid_arg "Md: range outside the described region";
    let stop = offset + len in
    let pos = ref offset and seg_start = ref 0 and i = ref 0 in
    while !pos < stop do
      let seg = t.iov.(!i) in
      let seg_end = !seg_start + seg.seg_len in
      if !pos < seg_end then begin
        let within = !pos - !seg_start in
        let piece = min (stop - !pos) (seg.seg_len - within) in
        let e = ext_off + (!pos - offset) in
        back seg;
        if into_md then Bytes.blit ext e seg.seg_buf (seg.seg_off + within) piece
        else Bytes.blit seg.seg_buf (seg.seg_off + within) ext e piece;
        pos := !pos + piece
      end;
      seg_start := seg_end;
      incr i
    done
  end

let write t ~offset ~src ~src_off ~len =
  transfer t ~offset ~len ~into_md:true src src_off

let read t ~offset ~len =
  let out = Bytes.create len in
  transfer t ~offset ~len ~into_md:false out 0;
  out

let blit_to t ~offset ~len ~dst ~dst_off =
  transfer t ~offset ~len ~into_md:false dst dst_off
