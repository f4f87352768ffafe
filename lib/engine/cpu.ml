type t = {
  sched : Scheduler.t;
  cpu_name : string;
  lock : Sync.Semaphore.t;
  mutable due : Time_ns.t option; (* completion time of in-flight compute *)
  mutable stolen : Time_ns.t;
  mutable computed : Time_ns.t;
}

let create ?(name = "cpu") sched =
  {
    sched;
    cpu_name = name;
    lock = Sync.Semaphore.create ~name:(name ^ ".lock") sched 1;
    due = None;
    stolen = Time_ns.zero;
    computed = Time_ns.zero;
  }

let probe_family sched ~size cpu =
  let m = Scheduler.metrics sched in
  let member i = (cpu i).cpu_name in
  let family name f = Metrics.probe_family m ~label:"cpu" ~size ~member name f in
  family "cpu.stolen_us" (fun i -> Time_ns.to_us (cpu i).stolen);
  family "cpu.compute_us" (fun i -> Time_ns.to_us (cpu i).computed);
  family "cpu.occupancy" (fun i ->
      (* Fraction of elapsed simulated time this CPU spent executing
         application compute or stolen protocol work. *)
      let t = cpu i in
      let now = Time_ns.to_us (Scheduler.now sched) in
      if now <= 0. then 0.
      else (Time_ns.to_us t.computed +. Time_ns.to_us t.stolen) /. now)

let name t = t.cpu_name

(* [steal] pushes [t.due] forward while we sleep, so we loop until the
   deadline stops moving. *)
let compute t d =
  if Time_ns.compare d Time_ns.zero < 0 then invalid_arg "Cpu.compute: negative";
  Sync.Semaphore.acquire t.lock;
  let start = Scheduler.now t.sched in
  t.computed <- Time_ns.add t.computed d;
  t.due <- Some (Time_ns.add start d);
  let rec wait_until_done () =
    match t.due with
    | None -> assert false
    | Some target ->
      if Time_ns.compare (Scheduler.now t.sched) target < 0 then begin
        Scheduler.delay_until t.sched target;
        wait_until_done ()
      end
  in
  wait_until_done ();
  t.due <- None;
  let tr = Scheduler.trace t.sched in
  if Trace.enabled tr then
    Trace.complete tr ~subsys:"cpu" ~proc:t.cpu_name ~start
      ~finish:(Scheduler.now t.sched) "compute";
  Sync.Semaphore.release t.lock

let steal t d =
  if Time_ns.compare d Time_ns.zero < 0 then invalid_arg "Cpu.steal: negative";
  t.stolen <- Time_ns.add t.stolen d;
  match t.due with
  | None -> ()
  | Some target -> t.due <- Some (Time_ns.add target d)

let stolen_total t = t.stolen
let compute_total t = t.computed
let busy t = t.due <> None
