(* An index heap. Each event's value is written once into [values.(slot)]
   by [add] and read once by [pop_min]; the sifts move only two [int]
   arrays, so no level of a sift pays the write barrier a pointer store
   into a major-heap array costs. [times] and [keys] are heap-ordered by
   position, and a key packs the event's sequence number above its slot id:
   [key = (seq lsl shift) lor slot], with [shift = log2 capacity]. Sequence
   numbers are unique, so comparing keys compares seqs, and the (time, seq)
   order — hence every seeded run — is the one a heap of records gives.

   Positions [size, capacity) of [keys] hold the free slot ids, so a pop
   hands its slot back by writing it at the position the heap just gave
   up, and an add takes the slot at position [size].

   The tree is 4-ary: children of [i] sit at [4i+1 .. 4i+4]. Halving the
   depth matters because every processed event pays one sift-down from
   the root; the four children also share cache lines. Sifts move a hole
   instead of swapping: two int stores per level. *)

type 'a t = {
  mutable times : int array;
  mutable keys : int array;
  mutable values : 'a array;
  mutable shift : int;
  mutable size : int;
  mutable next_seq : int;
  mutable peak : int;
}

exception Empty

let create () =
  {
    times = [||];
    keys = [||];
    values = [||];
    shift = 0;
    size = 0;
    next_seq = 0;
    peak = 0;
  }

let is_empty t = t.size = 0
let length t = t.size
let peak_size t = t.peak

(* Refuses a seq that would not fit above [shift] slot bits in a
   non-negative int: past that, keys would wrap and misorder. *)
let check_seq t shift =
  if t.next_seq > max_int lsr shift then
    invalid_arg "Event_heap.add: sequence numbers exhausted"

(* Called on a full heap: doubles every array and repacks the keys with
   one more slot bit. The new positions [cap, ncap) hold the new slot ids.
   The check comes first, so a refused growth leaves the heap intact. *)
let grow t value =
  let cap = Array.length t.keys in
  let ncap, nshift = if cap = 0 then (16, 4) else (cap * 2, t.shift + 1) in
  check_seq t nshift;
  let mask = (1 lsl t.shift) - 1 in
  let nt = Array.make ncap 0 and nk = Array.init ncap Fun.id in
  Array.blit t.times 0 nt 0 cap;
  for i = 0 to cap - 1 do
    let k = t.keys.(i) in
    nk.(i) <- ((k lsr t.shift) lsl nshift) lor (k land mask)
  done;
  let nv = Array.make ncap value in
  Array.blit t.values 0 nv 0 cap;
  t.times <- nt;
  t.keys <- nk;
  t.values <- nv;
  t.shift <- nshift

(* Both sifts carry the entry [(ht, hk)] as a hole — [sift_up] from
   position [i], [sift_down] from the root — move displaced entries into
   it, and write the entry where the hole stops. *)
let sift_up (times : int array) (keys : int array) i ht hk =
  let j = ref i in
  let moving = ref true in
  while !moving && !j > 0 do
    let parent = (!j - 1) / 4 in
    let pt = times.(parent) and pk = keys.(parent) in
    if ht < pt || (ht = pt && hk < pk) then begin
      times.(!j) <- pt;
      keys.(!j) <- pk;
      j := parent
    end
    else moving := false
  done;
  times.(!j) <- ht;
  keys.(!j) <- hk

let sift_down (times : int array) (keys : int array) n ht hk =
  let j = ref 0 in
  let moving = ref true in
  while !moving do
    let first = (4 * !j) + 1 in
    if first >= n then moving := false
    else begin
      let last_child = if first + 3 < n - 1 then first + 3 else n - 1 in
      let m = ref first and mt = ref times.(first) and mk = ref keys.(first) in
      for c = first + 1 to last_child do
        let ct = times.(c) in
        if ct < !mt || (ct = !mt && keys.(c) < !mk) then begin
          m := c;
          mt := ct;
          mk := keys.(c)
        end
      done;
      if !mt < ht || (!mt = ht && !mk < hk) then begin
        times.(!j) <- !mt;
        keys.(!j) <- !mk;
        j := !m
      end
      else moving := false
    end
  done;
  times.(!j) <- ht;
  keys.(!j) <- hk

let add t ~time value =
  if t.size = Array.length t.keys then grow t value;
  check_seq t t.shift;
  let i = t.size in
  let slot = t.keys.(i) in
  t.values.(slot) <- value;
  let key = (t.next_seq lsl t.shift) lor slot in
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  if t.size > t.peak then t.peak <- t.size;
  sift_up t.times t.keys i time key

let min_time t = if t.size = 0 then raise Empty else t.times.(0)

let pop_min t =
  if t.size = 0 then raise Empty
  else begin
    let keys = t.keys in
    let mask = (1 lsl t.shift) - 1 in
    let slot = keys.(0) land mask in
    let top = t.values.(slot) in
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then begin
      let moved = keys.(last) in
      (* Point the vacated cell at the value of the entry that moves up
         from the last position: a late event, usually still pending.
         The new minimum, popped almost at once, would leave free cells
         holding dead closures; on perfbench [halo] that raised peak RSS
         by 3.5%. *)
      t.values.(slot) <- t.values.(moved land mask);
      sift_down t.times keys last t.times.(last) moved
    end;
    keys.(last) <- slot;
    top
  end

module For_testing = struct
  let create_at_seq next_seq = { (create ()) with next_seq }
end
