(* The calibration kernel: a fixed piece of host work built from the
   standard library alone, so no change to the simulator can make it
   faster or slower. It mimics the simulator's inner loop: an event heap
   of small records, a hash table of buffers, and steady minor-heap
   allocation, all within a few MiB. Timing it right before and after each
   pass measures how fast the host happens to be at that moment, which on
   a shared machine drifts by tens of percent from minute to minute. *)

type ev = { time : int; id : int; mutable hist : int list }

let steps = 150_000

let heap_work () =
  let n = 1 lsl 14 in
  let heap = Array.make n { time = 0; id = 0; hist = [] } in
  let size = ref 0 in
  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t
  in
  let push e =
    let i = ref !size in
    incr size;
    heap.(!i) <- e;
    while !i > 0 && heap.((!i - 1) / 2).time > heap.(!i).time do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      let m = ref !i in
      if l < !size && heap.(l).time < heap.(!m).time then m := l;
      if l + 1 < !size && heap.(l + 1).time < heap.(!m).time then m := l + 1;
      if !m = !i then fin := true
      else begin
        swap !i !m;
        i := !m
      end
    done;
    top
  in
  let tbl = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to n / 2 do
    push { time = i * 7919 land 0xFFFFF; id = i; hist = [ i ] }
  done;
  for i = 0 to steps do
    let e = pop () in
    let k = e.id land 0x3FFF in
    (match Hashtbl.find_opt tbl k with
    | Some b ->
      Bytes.set_uint8 b (i land 15) (i land 0xFF);
      acc := !acc + Bytes.get_uint8 b 3
    | None -> Hashtbl.replace tbl k (Bytes.make 64 'x'));
    e.hist <- i :: (match e.hist with x :: _ -> [ x ] | [] -> []);
    push
      {
        time = e.time + 1 + (i * 31 land 1023);
        id = ((e.id * 17) + i) land 0xFFFFF;
        hist = e.hist;
      }
  done;
  !acc

(* Host seconds of one run of the kernel on each of [domains] domains at
   once: a sharded workload waits for its slowest domain, so it is the
   speed of all of them together that matters. *)
let run ~domains =
  let t0 = Unix.gettimeofday () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn heap_work) in
  let mine = heap_work () in
  let sum = List.fold_left (fun a d -> a + Domain.join d) mine others in
  ignore (Sys.opaque_identity sum);
  Unix.gettimeofday () -. t0
