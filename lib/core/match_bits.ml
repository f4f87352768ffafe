type t = int64

let zero = 0L
let of_int64 x = x
let to_int64 x = x
let of_int = Int64.of_int
let all_ones = -1L

let matches ~mbits ~match_bits ~ignore_bits =
  Int64.equal
    (Int64.logand (Int64.logxor mbits match_bits) (Int64.lognot ignore_bits))
    0L

let mask ~shift ~width =
  if width <= 0 || shift < 0 || shift + width > 64 then
    invalid_arg "Match_bits.mask: bad field";
  if width = 64 then all_ones
  else Int64.shift_left (Int64.sub (Int64.shift_left 1L width) 1L) shift

let field ~shift ~width v =
  let m = mask ~shift:0 ~width in
  let v64 = Int64.of_int v in
  if not (Int64.equal (Int64.logand v64 (Int64.lognot m)) 0L) then
    invalid_arg
      (Printf.sprintf "Match_bits.field: %d does not fit in %d bits" v width);
  Int64.shift_left v64 shift

let extract ~shift ~width t =
  Int64.to_int (Int64.logand (Int64.shift_right_logical t shift) (mask ~shift:0 ~width))

let hi32 t = Int64.to_int (Int64.shift_right_logical t 32)
let lo32 t = Int64.to_int t land 0xFFFF_FFFF
let logor = Int64.logor
let equal = Int64.equal
let pp ppf t = Format.fprintf ppf "0x%016Lx" t
