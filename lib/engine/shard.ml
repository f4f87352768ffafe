(* Conservative time-window runtime for parallel discrete-event runs.

   Each shard owns one {!Scheduler} (heap, clock, PRNG, metrics) and runs
   on its own OCaml domain. Synchronization is the classic conservative
   window scheme: with [lookahead] = the minimum latency of any
   shard-crossing link, an event executing at time t can only create
   remote work at or after t + lookahead, so every shard may process the
   half-open window [start, start + lookahead) without hearing from the
   others. Cross-shard sends become timestamped envelopes posted to the
   destination's mailbox during the window and drained — sorted by
   (time, source shard, per-source sequence) so the merge order is a pure
   function of the simulation, not of OS thread timing — at the next
   barrier.

   Each round is two barrier phases:

     run window          (posts land in mailboxes)
     -- barrier A --     (no further posts for this round)
     drain own mailbox; publish earliest local event
     -- barrier B --     (reduction inputs complete)
     next window = [min over shards, min + lookahead)

   Memory model notes: the reduction slots ([next]) are written strictly
   between barriers A and B and read strictly between B and the next A,
   so the barrier mutex orders every access; the same phase discipline
   makes the [abort] flag consistent — it is only ever set in the publish
   phase, so after barrier B all shards read the same value and exit in
   lockstep (nobody is left waiting at a barrier). The barriers block on
   a condition variable rather than spinning, so oversubscribed runs
   (more domains than cores — the common case in CI containers) degrade
   gracefully. A mailbox is a lock-free list: posts push onto it and the
   owner takes the whole list at the drain, so the window runtime holds
   no lock until a run builds its barrier.

   With no lookahead (no shard-crossing link) the window is unbounded:
   no shard can create work for another. *)

type 'msg envelope = {
  e_time : Time_ns.t;
  e_src : int;
  e_seq : int;
  e_msg : 'msg;
}

type barrier = {
  bm : Mutex.t;
  bc : Condition.t;
  total : int;
  mutable count : int;
  mutable phase : int;
}

let barrier_create total =
  { bm = Mutex.create (); bc = Condition.create (); total; count = 0; phase = 0 }

let barrier_await b =
  Mutex.lock b.bm;
  let ph = b.phase in
  b.count <- b.count + 1;
  if b.count = b.total then begin
    b.count <- 0;
    b.phase <- ph + 1;
    Condition.broadcast b.bc
  end
  else
    while b.phase = ph do
      Condition.wait b.bc b.bm
    done;
  Mutex.unlock b.bm

type 'msg t = {
  scheds : Scheduler.t array;
  lookahead : Time_ns.t option;
  mailboxes : 'msg envelope list Atomic.t array;
  seqs : int array array; (* seqs.(src).(dst): touched by domain src only *)
  window_end : Time_ns.t array; (* window_end.(k): touched by domain k only *)
  next : Time_ns.t array; (* reduction slots; max_int = no local event *)
  failure : exn option Atomic.t;
  mutable abort : bool; (* written in publish phase only; see header *)
  mutable rounds : int;
}

let no_event = max_int

let create ~scheds ~lookahead () =
  let n = Array.length scheds in
  if n < 1 then invalid_arg "Shard.create: need at least one shard";
  (match lookahead with
  | Some l when Time_ns.compare l Time_ns.zero <= 0 ->
    invalid_arg "Shard.create: lookahead must be positive"
  | _ -> ());
  {
    scheds;
    lookahead;
    mailboxes = Array.init n (fun _ -> Atomic.make []);
    seqs = Array.init n (fun _ -> Array.make n 0);
    window_end = Array.make n Time_ns.zero;
    next = Array.make n no_event;
    failure = Atomic.make None;
    abort = false;
    rounds = 0;
  }

let domains t = Array.length t.scheds
let lookahead t = t.lookahead
let rounds t = t.rounds

let rec push box env =
  let items = Atomic.get box in
  if not (Atomic.compare_and_set box items (env :: items)) then push box env

let post t ~src ~dst ~time msg =
  if src = dst then invalid_arg "Shard.post: src and dst shard are equal";
  if Time_ns.compare time t.window_end.(src) < 0 then
    invalid_arg
      (Format.asprintf
         "Shard.post: time %a violates the lookahead bound (window end %a)"
         Time_ns.pp time Time_ns.pp t.window_end.(src));
  let seq = t.seqs.(src).(dst) in
  t.seqs.(src).(dst) <- seq + 1;
  let env = { e_time = time; e_src = src; e_seq = seq; e_msg = msg } in
  push t.mailboxes.(dst) env

let fail t e =
  ignore (Atomic.compare_and_set t.failure None (Some e))

let failed t = Atomic.get t.failure <> None

let drain t k deliver =
  let items = Atomic.exchange t.mailboxes.(k) [] in
  let sorted =
    List.sort
      (fun a b ->
        match Time_ns.compare a.e_time b.e_time with
        | 0 -> (
          match compare a.e_src b.e_src with
          | 0 -> compare a.e_seq b.e_seq
          | c -> c)
        | c -> c)
      items
  in
  List.iter (fun e -> deliver ~shard:k ~time:e.e_time e.e_msg) sorted

(* One shard's run loop. Every shard executes the same round structure
   (same barrier count per round), and every exit point sits directly
   after barrier B on a value all shards computed identically, so the
   loop can never strand a peer at a barrier. User code (deliver
   callbacks, scheduled events) is wrapped: a raise records the failure
   and the shard degrades to a no-op participant until the common exit. *)
let shard_loop t k ~barrier ~until ~deliver =
  let sched = t.scheds.(k) in
  let n = domains t in
  let exception Exit_loop in
  try
    while true do
      (* Publish phase: drain our mailbox, expose our earliest event. *)
      (try
         if failed t then t.next.(k) <- no_event
         else begin
           drain t k deliver;
           t.next.(k) <-
             (match Scheduler.next_event_time sched with
             | Some time -> time
             | None -> no_event)
         end
       with e ->
         fail t e;
         t.next.(k) <- no_event);
      if failed t then t.abort <- true;
      barrier_await barrier;
      if t.abort then raise Exit_loop;
      let global_next = ref no_event in
      for i = 0 to n - 1 do
        if t.next.(i) < !global_next then global_next := t.next.(i)
      done;
      if !global_next = no_event then raise Exit_loop;
      (match until with
      | Some limit when Time_ns.compare !global_next limit > 0 ->
        raise Exit_loop
      | _ -> ());
      let window_end =
        let w =
          match t.lookahead with
          | Some l -> Time_ns.add !global_next l
          | None -> no_event
        in
        match until with
        | Some limit when Time_ns.compare w (Time_ns.add limit 1) > 0 ->
          Time_ns.add limit 1
        | _ -> w
      in
      t.window_end.(k) <- window_end;
      if k = 0 then t.rounds <- t.rounds + 1;
      (* Window phase: events in [global_next, window_end) are safe. *)
      (try Scheduler.run ~until:(Time_ns.sub window_end 1) sched
       with e -> fail t e);
      barrier_await barrier
    done
  with Exit_loop -> ()

(* Shard 0 on the caller, the rest on one spawned domain each; [run]
   places its shards with it. Every domain is joined before any failure
   is re-raised, so a raise never leaves a helper running. *)
let parallel_init n f =
  if n < 1 then invalid_arg "Shard.parallel_init: need at least one shard";
  let attempt k =
    match f k with
    | v -> Ok v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let helpers =
    Array.init (n - 1) (fun i -> Domain.spawn (fun () -> attempt (i + 1)))
  in
  let first = attempt 0 in
  let results = Array.append [| first |] (Array.map Domain.join helpers) in
  Array.map
    (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    results

let run_windows ?until ~allow_blocked t ~deliver =
  let n = domains t in
  Atomic.set t.failure None;
  t.abort <- false;
  Array.fill t.window_end 0 n Time_ns.zero;
  (* S shard clocks advance over the same interval; count the merged
     clock once instead (see Scheduler.count_sim_time). *)
  Array.iter (fun s -> Scheduler.count_sim_time s false) t.scheds;
  let clock () =
    Array.fold_left (fun acc s -> max acc (Scheduler.now s)) Time_ns.zero
      t.scheds
  in
  let start_clock = clock () in
  let barrier = barrier_create n in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun s -> Scheduler.count_sim_time s true) t.scheds;
      Scheduler.add_global_sim_time (Time_ns.sub (clock ()) start_clock))
    (fun () ->
      ignore
        (parallel_init n (fun k -> shard_loop t k ~barrier ~until ~deliver)));
  (match Atomic.get t.failure with Some e -> raise e | None -> ());
  (* Each shard's clock stopped at its own last event; the sequential
     run's stops at the latest of them. Bring every shard there, so what
     reads a clock after the run (a CPU's occupancy, the next relative
     timer) reads the sequential reference's. No shard has an event
     before it: the run ended because none was left at or before
     [until]. *)
  let merged = clock () in
  Array.iter (fun s -> Scheduler.advance_to s merged) t.scheds;
  if until = None && not allow_blocked then begin
    let live =
      Array.fold_left (fun acc s -> acc + Scheduler.live_fibers s) 0 t.scheds
    in
    if live > 0 then
      raise
        (Scheduler.Deadlock
           (Array.to_list t.scheds
           |> List.concat_map Scheduler.blocked_report
           |> List.sort compare))
  end

(* A lone shard has no peer to wait for: its run is the sequential
   reference itself. *)
let run ?until ?(allow_blocked = false) t ~deliver =
  if domains t = 1 then Scheduler.run ?until ~allow_blocked t.scheds.(0)
  else run_windows ?until ~allow_blocked t ~deliver
