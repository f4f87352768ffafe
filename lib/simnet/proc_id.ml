type nid = int
type pid = int
type t = { nid : nid; pid : pid }

let make ~nid ~pid = { nid; pid }
let equal a b = a.nid = b.nid && a.pid = b.pid
let compare a b =
  match Int.compare a.nid b.nid with 0 -> Int.compare a.pid b.pid | c -> c

let pp ppf t = Format.fprintf ppf "%d:%d" t.nid t.pid
let to_string t = string_of_int t.nid ^ ":" ^ string_of_int t.pid

module Pair_tbl = struct
  (* Chained buckets keyed field by field on the two addresses, so a
     lookup builds no key tuple and returns no option. *)
  type 'a bucket =
    | Nil
    | Cons of { src : t; dst : t; value : 'a; next : 'a bucket }

  type 'a tbl = { mutable buckets : 'a bucket array; mutable size : int }

  let create n =
    let rec pow2 c = if c >= n then c else pow2 (2 * c) in
    { buckets = Array.make (pow2 16) Nil; size = 0 }

  let index t src dst =
    let h =
      (((((src.nid * 31) + src.pid) * 31) + dst.nid) * 31) + dst.pid
    in
    let h = h * 0x9E3779B1 in
    (h lxor (h lsr 29)) land (Array.length t.buckets - 1)

  let rec find_in src dst = function
    | Nil -> raise Not_found
    | Cons c ->
      if
        c.src.nid = src.nid && c.src.pid = src.pid && c.dst.nid = dst.nid
        && c.dst.pid = dst.pid
      then c.value
      else find_in src dst c.next

  let find t src dst = find_in src dst t.buckets.(index t src dst)

  let resize t =
    let old = t.buckets in
    t.buckets <- Array.make (2 * Array.length old) Nil;
    let rec move = function
      | Nil -> ()
      | Cons c ->
        let i = index t c.src c.dst in
        t.buckets.(i) <- Cons { c with next = t.buckets.(i) };
        move c.next
    in
    Array.iter move old

  let add t src dst value =
    if t.size >= 2 * Array.length t.buckets then resize t;
    let i = index t src dst in
    t.buckets.(i) <- Cons { src; dst; value; next = t.buckets.(i) };
    t.size <- t.size + 1

  let filter_inplace keep t =
    let rec go = function
      | Nil -> Nil
      | Cons c ->
        if keep c.src c.dst c.value then Cons { c with next = go c.next }
        else begin
          t.size <- t.size - 1;
          go c.next
        end
    in
    Array.iteri (fun i b -> t.buckets.(i) <- go b) t.buckets

  let fold f t acc =
    let rec go acc = function
      | Nil -> acc
      | Cons c -> go (f c.src c.dst c.value acc) c.next
    in
    Array.fold_left go acc t.buckets
end
