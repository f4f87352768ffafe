type eq_kind = |
type md_kind = |
type me_kind = |
type ct_kind = |

(* One immediate: the slot index in the low 32 bits, the generation in
   the 31 bits above it. [none] is -1, which no table ever hands out. *)
type 'k t = int

type eq = eq_kind t
type md = md_kind t
type me = me_kind t
type ct = ct_kind t

let none = -1
let is_none t = t = none
let equal = Int.equal
let idx_bits = 32
let idx_mask = (1 lsl idx_bits) - 1
let make ~idx ~gen = idx lor (gen lsl idx_bits)
let idx t = t land idx_mask
let gen t = t lsr idx_bits

(* The wire's 64-bit field holds the same integer, sign-extended: the
   top bit is clear and [none] is all-ones. An integer, not an [int64],
   so encoding and decoding box nothing. *)
let to_wire t = t
let of_wire w = w

module Table = struct
  type 'a slot = { mutable value : 'a option; mutable gen : int }

  type ('k, 'a) t = {
    mutable slots : 'a slot array;
    mutable free : int list;
    mutable live : int;
  }

  let create () = { slots = [||]; free = []; live = 0 }

  let grow t =
    let old = Array.length t.slots in
    let cap = if old = 0 then 16 else old * 2 in
    let slots = Array.init cap (fun i ->
        if i < old then t.slots.(i) else { value = None; gen = 0 })
    in
    t.slots <- slots;
    for i = cap - 1 downto old do
      t.free <- i :: t.free
    done

  let alloc t v =
    (match t.free with [] -> grow t | _ :: _ -> ());
    match t.free with
    | [] -> assert false
    | idx :: rest ->
      t.free <- rest;
      let slot = t.slots.(idx) in
      slot.value <- Some v;
      t.live <- t.live + 1;
      make ~idx ~gen:slot.gen

  let find t h =
    let i = idx h in
    if is_none h || i >= Array.length t.slots then None
    else
      let slot = t.slots.(i) in
      if slot.gen <> gen h then None else slot.value

  let free t h =
    match find t h with
    | None -> false
    | Some _ ->
      let slot = t.slots.(idx h) in
      slot.value <- None;
      slot.gen <- slot.gen + 1;
      t.free <- idx h :: t.free;
      t.live <- t.live - 1;
      true

  let live_count t = t.live

  let iter t f =
    Array.iteri
      (fun idx slot ->
        match slot.value with
        | None -> ()
        | Some v -> f (make ~idx ~gen:slot.gen) v)
      t.slots
end
