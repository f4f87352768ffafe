(* A 4-ary heap of runs. A run is a FIFO chain of events scheduled for
   one time; the heap holds one entry per run, so a burst of simultaneous
   events costs one sift in and one sift out, and every pop but the run's
   last only rewrites the root's key.

   Per event (slot): [values.(slot)] holds the value, written once by
   [add] and read once by [pop_min], and [next.(slot)] the next slot of
   its run, or [-1] after the run's tail. Free slots are chained through
   [next] from [free], so the slot arrays cost two words per event.

   Per run (heap entry): [times] and [keys] are heap-ordered by position,
   and a key packs the run's sequence number above its head slot:
   [key = (seq lsl shift) lor head], with [shift = log2 capacity] of the
   slot arrays. Run seqs are unique, so comparing keys compares seqs.
   Popping a non-final event moves the head to [next.(head)], which keeps
   the seq and hence the entry's place in the heap.

   Ordering. An event is appended only to the newest run of its time, and
   a run opened later gets a larger seq, so within one time the runs come
   out in seq order, each in FIFO order, and every event of a run was
   added before every event of any later run at that time: the pop order
   is (time, insertion) exactly.

   An add finds the newest run of its time through a direct-mapped cache
   from a time to that run's tail slot ([ctimes]/[ctails], [-1] for no
   entry). A miss opens a new run, which is always allowed, so an evicted
   entry only costs a sift. Two invariants keep a hit correct: an entry is
   only ever set to the tail of the newest run of its time, and it is
   cleared when that slot is freed (the pop of a run's last event), so a
   hit never appends to a recycled slot.

   The tree is 4-ary: children of [i] sit at [4i+1 .. 4i+4]. Sifts move a
   hole instead of swapping: two int stores per level. *)

type 'a t = {
  mutable times : int array;
  mutable keys : int array;
  mutable runs : int;
  mutable values : 'a array;
  mutable next : int array;
  mutable free : int;
  mutable shift : int;
  ctimes : int array;
  ctails : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable peak : int;
}

exception Empty

(* The cache is direct-mapped, 2 words an entry: enough for the few
   dozen times a simulation has pending at once (a collision only opens a
   run), and small next to the slot arrays of the many short worlds. *)
let cache_bits = 6

(* Fibonacci hashing: the top [cache_bits] bits of [time * odd constant],
   so times on a coarse grid (multiples of a link latency) spread out. *)
let cache_index time = (time * 0x2545F4914F6CDD1D) lsr (63 - cache_bits)

let create () =
  {
    times = [||];
    keys = [||];
    runs = 0;
    values = [||];
    next = [||];
    free = -1;
    shift = 0;
    ctimes = Array.make (1 lsl cache_bits) 0;
    ctails = Array.make (1 lsl cache_bits) (-1);
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

(* Called with no free slot: doubles the slot arrays, chains the new
   slots [cap, ncap) onto the free list and repacks the run keys with one
   more slot bit. The check comes first, so a refused growth leaves the
   heap intact. *)
let grow_slots t value =
  let cap = Array.length t.next in
  let ncap, nshift = if cap = 0 then (16, 4) else (cap * 2, t.shift + 1) in
  check_seq t nshift;
  let nv = Array.make ncap value in
  Array.blit t.values 0 nv 0 cap;
  let nn = Array.init ncap (fun i -> if i < cap then t.next.(i) else i + 1) in
  nn.(ncap - 1) <- -1;
  let mask = (1 lsl t.shift) - 1 in
  let keys = t.keys in
  for i = 0 to t.runs - 1 do
    let k = keys.(i) in
    keys.(i) <- ((k lsr t.shift) lsl nshift) lor (k land mask)
  done;
  t.values <- nv;
  t.next <- nn;
  t.free <- cap;
  t.shift <- nshift

let grow_runs t =
  let cap = Array.length t.keys in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let nt = Array.make ncap 0 and nk = Array.make ncap 0 in
  Array.blit t.times 0 nt 0 cap;
  Array.blit t.keys 0 nk 0 cap;
  t.times <- nt;
  t.keys <- nk

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
  if t.free < 0 then grow_slots t value;
  let ci = cache_index time in
  let tail = t.ctails.(ci) in
  let hit = tail >= 0 && t.ctimes.(ci) = time in
  if not hit then check_seq t t.shift;
  let slot = t.free in
  let next = t.next in
  t.free <- next.(slot);
  next.(slot) <- -1;
  t.values.(slot) <- value;
  if hit then next.(tail) <- slot
  else begin
    if t.runs = Array.length t.keys then grow_runs t;
    let i = t.runs in
    t.runs <- i + 1;
    let key = (t.next_seq lsl t.shift) lor slot in
    t.next_seq <- t.next_seq + 1;
    t.ctimes.(ci) <- time;
    sift_up t.times t.keys i time key
  end;
  t.ctails.(ci) <- slot;
  t.size <- t.size + 1;
  if t.size > t.peak then t.peak <- t.size

let min_time t = if t.size = 0 then raise Empty else t.times.(0)

let pop_min t =
  if t.size = 0 then raise Empty
  else begin
    let keys = t.keys and next = t.next in
    let key = keys.(0) in
    let mask = (1 lsl t.shift) - 1 in
    let head = key land mask in
    let top = t.values.(head) in
    let succ = next.(head) in
    (* Each branch points the freed cell at the head value of the run in
       the heap's last position: a late event, usually still pending.
       The run's next value, popped almost at once, would leave the free
       list holding dead closures; on perfbench [halo] that read peak RSS
       about 20% higher. *)
    if succ >= 0 then begin
      keys.(0) <- key lxor head lor succ;
      t.values.(head) <- t.values.(keys.(t.runs - 1) land mask)
    end
    else begin
      let ci = cache_index t.times.(0) in
      if t.ctails.(ci) = head then t.ctails.(ci) <- -1;
      let last = t.runs - 1 in
      t.runs <- last;
      if last > 0 then begin
        let lk = keys.(last) in
        t.values.(head) <- t.values.(lk land mask);
        sift_down t.times keys last t.times.(last) lk
      end
    end;
    next.(head) <- t.free;
    t.free <- head;
    t.size <- t.size - 1;
    top
  end

module For_testing = struct
  let create_at_seq next_seq = { (create ()) with next_seq }
  let cache_entries = 1 lsl cache_bits
  let runs t = t.runs
end
