module Ivar = struct
  type 'a state = Empty of (unit -> unit) Queue.t | Filled of 'a
  type 'a t = { sched : Scheduler.t; mutable state : 'a state }

  let create sched = { sched; state = Empty (Queue.create ()) }

  let fill t v =
    match t.state with
    | Filled _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
      t.state <- Filled v;
      Queue.iter (fun waker -> waker ()) waiters

  let is_filled t = match t.state with Filled _ -> true | Empty _ -> false
  let peek t = match t.state with Filled v -> Some v | Empty _ -> None

  let read t =
    match t.state with
    | Filled v -> v
    | Empty waiters ->
      Scheduler.suspend t.sched ~name:"ivar" (fun waker -> Queue.add waker waiters);
      (match t.state with
      | Filled v -> v
      | Empty _ -> assert false)
end

module Waitq = struct
  type t = { sched : Scheduler.t; name : string; waiters : (unit -> unit) Queue.t }

  let create ?(name = "waitq") sched = { sched; name; waiters = Queue.create () }

  let wait t =
    Scheduler.suspend t.sched ~name:t.name (fun waker -> Queue.add waker t.waiters)

  let signal t =
    match Queue.take_opt t.waiters with None -> () | Some waker -> waker ()

  let broadcast t =
    (* Wake exactly the fibers waiting now; wakers run their fibers at the
       current instant, and a re-wait would enqueue into the same queue, so
       drain a snapshot. The zero- and one-waiter cases (every event-queue
       post broadcasts, usually to at most one blocked receiver) skip the
       snapshot allocation. *)
    match Queue.length t.waiters with
    | 0 -> ()
    | 1 -> ( match Queue.take_opt t.waiters with None -> () | Some w -> w ())
    | _ ->
      let snapshot = Queue.create () in
      Queue.transfer t.waiters snapshot;
      Queue.iter (fun waker -> waker ()) snapshot

  let waiters t = Queue.length t.waiters
end

module Semaphore = struct
  type t = { mutable units : int; nonzero : Waitq.t }

  let create ?(name = "semaphore") sched n =
    if n < 0 then invalid_arg "Semaphore.create: negative";
    { units = n; nonzero = Waitq.create ~name sched }

  let rec acquire t =
    if t.units > 0 then t.units <- t.units - 1
    else begin
      Waitq.wait t.nonzero;
      acquire t
    end

  let release t =
    t.units <- t.units + 1;
    Waitq.signal t.nonzero

  let available t = t.units
end
