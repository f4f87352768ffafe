exception Deadlock of string list
exception Stopped
exception Killed

type fiber = { id : int; name : string; domain : int option; epoch : int }

(* One suspension of a fiber. [Blocked] is an inline record, so a
   suspension allocates one block; the continuation sits in it, so
   [kill_domain] discontinues it directly. [b_slot] is the entry's index
   in the blocked set, or [-1] once the fiber was woken or killed — the
   double-wake check. [Vacant] fills the set's unused cells, so no woken
   or killed entry stays reachable from the set. *)
type blocked =
  | Vacant
  | Blocked of {
      b_fiber : fiber;
      b_why : string;
      b_since : Time_ns.t;
      b_k : (unit, unit) Effect.Deep.continuation;
      mutable b_slot : int;
    }

(* The blocked fibers, unordered: [cells.(0 .. len - 1)] are [Blocked].
   Insertion appends; removal moves the last entry into the hole. *)
type blocked_set = { mutable cells : blocked array; mutable len : int }

type t = {
  heap : (unit -> unit) Event_heap.t;
  mutable now : Time_ns.t;
  mutable next_fiber_id : int;
  mutable live : int;
  mutable stopping : bool;
  mutable events : int;
  mutable count_sim_time : bool;
  blocked : blocked_set;
  domain_kills : (int, int) Hashtbl.t;
  mutable current : fiber option;
  metrics : Metrics.t;
  mutable trace_slot : Trace.t option;
}

(* Process-wide totals, accumulated across every scheduler instance so a
   harness can meter a whole experiment (which typically builds many
   worlds) as a delta around its run — see [global_totals]. Atomics:
   parallel worlds run one scheduler per domain, and these are the only
   engine-level cells written from more than one domain. *)
type totals = { t_events : int; t_fibers : int; t_sim_time : Time_ns.t }

let g_events = Atomic.make 0
let g_fibers = Atomic.make 0
let g_sim_ns = Atomic.make 0

let global_totals () =
  {
    t_events = Atomic.get g_events;
    t_fibers = Atomic.get g_fibers;
    t_sim_time = Atomic.get g_sim_ns;
  }

(* Parallel runs advance S shard clocks over the same interval; the shard
   runtime turns per-scheduler accounting off and credits the global clock
   once, so sim-time totals match the sequential run byte for byte. *)
let add_global_sim_time ns =
  if ns > 0 then ignore (Atomic.fetch_and_add g_sim_ns ns)

let count_sim_time t flag = t.count_sim_time <- flag

type _ Effect.t += Suspend : (string * ((unit -> unit) -> unit)) -> unit Effect.t

let create () =
  let t =
    {
      heap = Event_heap.create ();
      now = Time_ns.zero;
      next_fiber_id = 0;
      live = 0;
      stopping = false;
      events = 0;
      count_sim_time = true;
      blocked = { cells = [||]; len = 0 };
      domain_kills = Hashtbl.create 8;
      current = None;
      metrics = Metrics.create ();
      trace_slot = None;
    }
  in
  (* The trace reads the clock through a closure because Trace cannot
     depend on this module (the scheduler owns the trace). *)
  t.trace_slot <- Some (Trace.create ~capacity:65536 ~now:(fun () -> t.now) ());
  Metrics.probe t.metrics "sched.events_processed" (fun () ->
      float_of_int t.events);
  Metrics.probe t.metrics "sched.fibers_spawned" (fun () ->
      float_of_int t.next_fiber_id);
  Metrics.probe t.metrics "sched.heap_peak" (fun () ->
      float_of_int (Event_heap.peak_size t.heap));
  t

let now t = t.now
let live_fibers t = t.live
let events_processed t = t.events
let metrics t = t.metrics

let trace t =
  match t.trace_slot with Some tr -> tr | None -> assert false

let at t time f =
  if Time_ns.compare time t.now < 0 then
    invalid_arg
      (Format.asprintf "Scheduler.at: time %a is before now %a" Time_ns.pp time
         Time_ns.pp t.now);
  Event_heap.add t.heap ~time f

let after t dt f = at t (Time_ns.add t.now dt) f

(* [domain_kills] stays empty in a run without crashes, and every rank
   fiber carries a domain: the length test spares those runs a hash
   lookup on each suspend, wake and resume. *)
let domain_epoch t d =
  if Hashtbl.length t.domain_kills = 0 then 0
  else Option.value ~default:0 (Hashtbl.find_opt t.domain_kills d)

(* A fiber is dead once its domain has been killed after the fiber was
   spawned; fibers spawned after a restart carry the newer epoch and are
   unaffected by earlier kills. *)
let fiber_dead t fiber =
  match fiber.domain with
  | None -> false
  | Some d -> domain_epoch t d > fiber.epoch

let block set fiber why since k =
  let n = set.len in
  if n = Array.length set.cells then begin
    let cells = Array.make (max 16 (2 * n)) Vacant in
    Array.blit set.cells 0 cells 0 n;
    set.cells <- cells
  end;
  let cell =
    Blocked { b_fiber = fiber; b_why = why; b_since = since; b_k = k; b_slot = n }
  in
  set.cells.(n) <- cell;
  set.len <- n + 1;
  cell

(* Swap-remove: the last entry takes the hole, and the vacated last cell
   is cleared. *)
let unblock set cell =
  match cell with
  | Vacant -> ()
  | Blocked b ->
    let i = b.b_slot and last = set.len - 1 in
    let moved = set.cells.(last) in
    set.cells.(i) <- moved;
    (match moved with Blocked m -> m.b_slot <- i | Vacant -> ());
    set.cells.(last) <- Vacant;
    set.len <- last;
    b.b_slot <- -1

let resume t fiber k =
  let prev = t.current in
  t.current <- Some fiber;
  (if fiber_dead t fiber then Effect.Deep.discontinue k Killed
   else Effect.Deep.continue k ());
  t.current <- prev

(* A waker enqueues the resumption at the time it is invoked. A dead
   fiber's waker does nothing; a second call of a live fiber's waker is
   an error. *)
let wake t cell =
  match cell with
  | Vacant -> ()
  | Blocked b ->
    let fiber = b.b_fiber in
    if fiber_dead t fiber then ()
    else if b.b_slot < 0 then
      invalid_arg "Scheduler: waker invoked more than once"
    else begin
      unblock t.blocked cell;
      let k = b.b_k in
      Event_heap.add t.heap ~time:t.now (fun () -> resume t fiber k)
    end

(* Run a fiber body under the effect handler. [k] resumptions re-enter
   through this handler, so every blocking point in the fiber is covered. *)
let start_fiber t fiber f =
  let open Effect.Deep in
  let handler =
    {
      retc = (fun () -> t.live <- t.live - 1);
      exnc =
        (fun e ->
          match e with
          | Killed -> t.live <- t.live - 1
          | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend (why, register) ->
            Some
              (fun (k : (a, _) continuation) ->
                if fiber_dead t fiber then discontinue k Killed
                else begin
                  let cell = block t.blocked fiber why t.now k in
                  register (fun () -> wake t cell)
                end)
          | _ -> None);
    }
  in
  match_with f () handler

let spawn t ?(name = "fiber") ?domain f =
  let epoch = match domain with None -> 0 | Some d -> domain_epoch t d in
  let fiber = { id = t.next_fiber_id; name; domain; epoch } in
  t.next_fiber_id <- t.next_fiber_id + 1;
  ignore (Atomic.fetch_and_add g_fibers 1);
  t.live <- t.live + 1;
  Event_heap.add t.heap ~time:t.now (fun () ->
      if fiber_dead t fiber then t.live <- t.live - 1
      else begin
        let prev = t.current in
        t.current <- Some fiber;
        start_fiber t fiber f;
        t.current <- prev
      end)

let blocked_fiber = function Blocked b -> b.b_fiber | Vacant -> assert false

(* Victims die in fiber-id order, whatever their order in the set. *)
let kill_domain t d =
  Hashtbl.replace t.domain_kills d (domain_epoch t d + 1);
  let set = t.blocked in
  let victims = ref [] in
  for i = 0 to set.len - 1 do
    let cell = set.cells.(i) in
    if (blocked_fiber cell).domain = Some d then victims := cell :: !victims
  done;
  let victims =
    List.sort
      (fun a b -> compare (blocked_fiber a).id (blocked_fiber b).id)
      !victims
  in
  (* The epoch bump above makes every victim dead, so [resume]
     discontinues it. *)
  List.iter
    (fun cell ->
      match cell with
      | Vacant -> ()
      | Blocked b ->
        unblock set cell;
        resume t b.b_fiber b.b_k)
    victims;
  List.length victims

let suspend t ~name register =
  match t.current with
  | None -> invalid_arg "Scheduler.suspend: not inside a fiber"
  | Some _ -> Effect.perform (Suspend (name, register))

let delay_until t time =
  if Time_ns.compare time t.now > 0 then
    suspend t ~name:"delay" (fun waker -> Event_heap.add t.heap ~time waker)

let delay t dt =
  if Time_ns.compare dt Time_ns.zero < 0 then invalid_arg "Scheduler.delay: negative";
  delay_until t (Time_ns.add t.now dt)

let yield t = suspend t ~name:"yield" (fun waker -> waker ())

let stop t = t.stopping <- true

let blocked_names t =
  let set = t.blocked in
  List.init set.len (fun i ->
      match set.cells.(i) with
      | Vacant -> assert false
      | Blocked b ->
        Format.asprintf "at t=%a fiber#%d (%s) blocked since t=%a on %s"
          Time_ns.pp t.now b.b_fiber.id b.b_fiber.name Time_ns.pp b.b_since
          b.b_why)
  |> List.sort compare

(* The inner loop drains every event scheduled for one instant in a single
   batch: the stop/horizon checks and the clock write happen once per
   distinct timestamp instead of once per event, and the heap is driven
   through the non-allocating [min_time]/[pop_min] pair. The heap keeps
   an instant's events as runs, so a pop within a run is O(1) and only a
   run's last event pays a sift. Events added at the current instant
   ([after 0], wakers, [spawn]) join the newest run of that instant and
   land in the same batch in insertion order, so ordering is identical
   to the one-event-at-a-time loop. *)
let run ?until ?(allow_blocked = false) t =
  t.stopping <- false;
  let beyond time =
    match until with
    | None -> false
    | Some limit -> Time_ns.compare time limit > 0
  in
  let events0 = t.events in
  let rec loop () =
    if t.stopping then ()
    else if Event_heap.is_empty t.heap then begin
      if t.live > 0 && not allow_blocked && until = None then
        raise (Deadlock (blocked_names t))
    end
    else begin
      let time = Event_heap.min_time t.heap in
      if beyond time then ()
      else begin
        if t.count_sim_time then
          ignore (Atomic.fetch_and_add g_sim_ns (Time_ns.sub time t.now));
        t.now <- time;
        let continue = ref true in
        while !continue do
          let f = Event_heap.pop_min t.heap in
          t.events <- t.events + 1;
          f ();
          if
            t.stopping
            || Event_heap.is_empty t.heap
            || not (Time_ns.equal (Event_heap.min_time t.heap) time)
          then continue := false
        done;
        loop ()
      end
    end
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Atomic.fetch_and_add g_events (t.events - events0)))
    loop

let advance_to t time =
  if Time_ns.compare time t.now < 0 then
    invalid_arg
      (Format.asprintf "Scheduler.advance_to: time %a is before now %a"
         Time_ns.pp time Time_ns.pp t.now);
  if
    (not (Event_heap.is_empty t.heap))
    && Time_ns.compare (Event_heap.min_time t.heap) time < 0
  then invalid_arg "Scheduler.advance_to: an event is pending before the time";
  t.now <- time

let next_event_time t =
  if Event_heap.is_empty t.heap then None
  else Some (Event_heap.min_time t.heap)

let blocked_report t = blocked_names t
