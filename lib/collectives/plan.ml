(* A field that does not fit fails with {!Portals.Match_bits.field}'s
   message. *)
let fits ~width v =
  if v < 0 || v lsr width <> 0 then
    invalid_arg
      (Printf.sprintf "Match_bits.field: %d does not fit in %d bits" v width)

(* Computed in unboxed integers and boxed once. *)
let bits ~seq ~round ~src =
  fits ~width:40 seq;
  fits ~width:8 round;
  fits ~width:16 src;
  Portals.Match_bits.of_int64
    (Int64.logor
       (Int64.shift_left (Int64.of_int seq) 24)
       (Int64.of_int ((round lsl 16) lor src)))

(* The bit loops below are top-level recursions, not local closures, so
   that walking a plan allocates nothing. *)
let rec rounds_from r n = if 1 lsl r >= n then r else rounds_from (r + 1) n
let rounds n = rounds_from 0 n

let dissemination_dst ~n ~rank ~round = (rank + (1 lsl round)) mod n
let dissemination_src ~n ~rank ~round = (rank - (1 lsl round) + n) mod n

(* Binomial trees are laid out on virtual ranks, the root at 0. *)
let virtual_rank ~n ~root rank = (rank - root + n) mod n
let real ~n ~root v = (v + root) mod n

let rec highest_bit_from r v =
  if v lsr (r + 1) = 0 then r else highest_bit_from (r + 1) v

let rec lowest_bit_from r v =
  if v land (1 lsl r) <> 0 then r else lowest_bit_from (r + 1) v

let highest_bit v = highest_bit_from 0 v
let lowest_bit v = lowest_bit_from 0 v

(* Virtual rank v hears from v - 2^j in round j (j = v's highest set
   bit), then feeds v + 2^k in every round k > j, that is every round
   with v < 2^k. *)
let bcast_round ~n ~root ~rank =
  let v = virtual_rank ~n ~root rank in
  if v = 0 then -1 else highest_bit v

let bcast_parent ~n ~root ~rank =
  let v = virtual_rank ~n ~root rank in
  if v = 0 then -1 else real ~n ~root (v - (1 lsl highest_bit v))

let bcast_child ~n ~root ~rank ~round =
  let v = virtual_rank ~n ~root rank in
  let c = v + (1 lsl round) in
  if v < 1 lsl round && c < n then real ~n ~root c else -1

(* Virtual rank v absorbs v + 2^k in every round k below its lowest set
   bit j, that is every round with bits 0..k of v clear, then sends to
   v - 2^j in round j; the root absorbs in every round. *)
let reduce_round ~n ~root ~rank =
  let v = virtual_rank ~n ~root rank in
  if v = 0 then -1 else lowest_bit v

let reduce_parent ~n ~root ~rank =
  let v = virtual_rank ~n ~root rank in
  if v = 0 then -1 else real ~n ~root (v - (1 lsl lowest_bit v))

let reduce_child ~n ~root ~rank ~round =
  let v = virtual_rank ~n ~root rank in
  let c = v + (1 lsl round) in
  if v land ((2 lsl round) - 1) = 0 && c < n then real ~n ~root c else -1
