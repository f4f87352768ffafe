(* The criteria live in four immediate words, so the match walk compares
   them without following a pointer, and an entry is no larger than one
   holding boxed criteria was. Each word keeps a 32-bit half in its low
   bits and spare data above:

     bits_hi, bits_lo   halves of the match bits; above: nid, pid pattern
     care_hi, care_lo   halves of the bits that must agree (the ignore
                        bits' complement); above [care_hi]: the unlink flag

   A source pattern of [any] (31 one bits, the -1 of that width) is the
   wildcard. Every comparison of halves is masked to 32 bits, so the
   upper bits never take part in it. *)
type t = {
  mutable bits_hi : int;
  mutable bits_lo : int;
  care_hi : int;
  care_lo : int;
  mutable mds : Handle.md list; (* head = first considered *)
}

let low = 0xFFFF_FFFF
let any = 0x7FFF_FFFF
let unlink_flag = 1 lsl 32

let pattern = function
  | Match_id.Any -> any
  | Match_id.Id id ->
    if id < 0 || id >= any then invalid_arg "Me.create: process id out of range";
    id

let component p = if p = any then Match_id.Any else Match_id.Id p

let create ?(unlink = Md.Retain) ~match_id ~match_bits ~ignore_bits () =
  {
    bits_hi = Match_bits.hi32 match_bits lor (pattern match_id.Match_id.nid lsl 32);
    bits_lo = Match_bits.lo32 match_bits lor (pattern match_id.Match_id.pid lsl 32);
    care_hi =
      (lnot (Match_bits.hi32 ignore_bits) land low)
      lor (match unlink with Md.Unlink -> unlink_flag | Md.Retain -> 0);
    care_lo = lnot (Match_bits.lo32 ignore_bits) land low;
    mds = [];
  }

let join ~hi ~lo =
  Int64.logor
    (Int64.shift_left (Int64.of_int (hi land low)) 32)
    (Int64.of_int (lo land low))

let match_id t =
  Match_id.make ~nid:(component (t.bits_hi lsr 32))
    ~pid:(component (t.bits_lo lsr 32))

let match_bits t = join ~hi:t.bits_hi ~lo:t.bits_lo
let ignore_bits t = Int64.lognot (join ~hi:t.care_hi ~lo:t.care_lo)

let unlink_policy t =
  if t.care_hi land unlink_flag <> 0 then Md.Unlink else Md.Retain

let set_match_bits t b =
  t.bits_hi <- Match_bits.hi32 b lor (t.bits_hi land lnot low);
  t.bits_lo <- Match_bits.lo32 b lor (t.bits_lo land lnot low)

let matches_split t ~nid ~pid ~hi ~lo =
  (hi lxor t.bits_hi) land t.care_hi land low = 0
  && (lo lxor t.bits_lo) land t.care_lo land low = 0
  && (let n = t.bits_hi lsr 32 in n = any || n = nid)
  && let p = t.bits_lo lsr 32 in p = any || p = pid

let criteria_match t ~(src : Simnet.Proc_id.t) ~mbits =
  matches_split t ~nid:src.Simnet.Proc_id.nid ~pid:src.Simnet.Proc_id.pid
    ~hi:(Match_bits.hi32 mbits) ~lo:(Match_bits.lo32 mbits)

let md_handles t = t.mds
let first_md t = match t.mds with [] -> None | h :: _ -> Some h
let attach_md t h = t.mds <- t.mds @ [ h ]

let remove_md t h =
  let found = List.exists (Handle.equal h) t.mds in
  if found then t.mds <- List.filter (fun x -> not (Handle.equal x h)) t.mds;
  found

let md_count t = List.length t.mds
let is_empty t = t.mds = []
