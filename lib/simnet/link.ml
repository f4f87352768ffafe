open Sim_engine

type congestion = { cong_depth : int; cong_bytes : int }

type t = {
  sched : Scheduler.t;
  link_name : string;
  bandwidth : float option;
  latency : Time_ns.t;
  queue_limit : int option;
  tracked : bool;
  mutable free_at : Time_ns.t;
  mutable busy : Time_ns.t;
  mutable outstanding : int;
  mutable peak_outstanding : int;
  mutable drops : int;
  mutable hook : (congestion -> unit) option;
  (* flow id -> number of its transmissions currently on this link;
     only maintained for tracked links. *)
  flows : (int, int) Hashtbl.t;
  mutable peak_flows : int;
}

let create ?(name = "link") ?bandwidth ?(latency = Time_ns.zero) ?queue_limit
    ?(tracked = false) sched =
  {
    sched;
    link_name = name;
    bandwidth;
    latency;
    queue_limit;
    tracked;
    free_at = Time_ns.zero;
    busy = Time_ns.zero;
    outstanding = 0;
    peak_outstanding = 0;
    drops = 0;
    hook = None;
    flows = Hashtbl.create (if tracked then 8 else 1);
    peak_flows = 0;
  }

let probe_family sched ~size link =
  let tracked = size > 0 && (link 0).tracked in
  let m = Scheduler.metrics sched in
  let member i = (link i).link_name in
  let family name f = Metrics.probe_family m ~label:"link" ~size ~member name f in
  family "link.busy_us" (fun i -> Time_ns.to_us (link i).busy);
  family "link.utilization" (fun i ->
      let now = Time_ns.to_us (Scheduler.now sched) in
      if now <= 0. then 0. else Time_ns.to_us (link i).busy /. now);
  if tracked then begin
    family "link.busy_ns" (fun i -> float_of_int (link i).busy);
    family "link.queue_depth" (fun i -> float_of_int (link i).peak_outstanding);
    family "link.flows" (fun i -> float_of_int (link i).peak_flows);
    family "link.congestion_drops" (fun i -> float_of_int (link i).drops)
  end

let occupy t d =
  if Time_ns.compare d Time_ns.zero < 0 then
    invalid_arg (t.link_name ^ ": negative occupancy");
  let start = Time_ns.max (Scheduler.now t.sched) t.free_at in
  let finish = Time_ns.add start d in
  t.free_at <- finish;
  t.busy <- Time_ns.add t.busy d;
  finish

let flow_enter t flow =
  let n = Option.value ~default:0 (Hashtbl.find_opt t.flows flow) in
  Hashtbl.replace t.flows flow (n + 1);
  if n = 0 then
    t.peak_flows <- max t.peak_flows (Hashtbl.length t.flows)

let flow_leave t flow =
  match Hashtbl.find_opt t.flows flow with
  | Some 1 -> Hashtbl.remove t.flows flow
  | Some n -> Hashtbl.replace t.flows flow (n - 1)
  | None -> ()

let transmit t ?flow ~bytes () =
  let bandwidth =
    match t.bandwidth with
    | Some bw -> bw
    | None -> invalid_arg (t.link_name ^ ": transmit on a link with no bandwidth")
  in
  let congested =
    match t.queue_limit with
    | Some lim -> t.outstanding >= lim
    | None -> false
  in
  if congested then begin
    t.drops <- t.drops + 1;
    Option.iter
      (fun hook -> hook { cong_depth = t.outstanding; cong_bytes = bytes })
      t.hook;
    `Dropped
  end
  else begin
    let finish = occupy t (Time_ns.of_rate ~bytes_per_s:bandwidth bytes) in
    if t.tracked || t.queue_limit <> None then begin
      t.outstanding <- t.outstanding + 1;
      t.peak_outstanding <- max t.peak_outstanding t.outstanding;
      Option.iter (fun f -> flow_enter t f) flow;
      Scheduler.at t.sched finish (fun () ->
          t.outstanding <- t.outstanding - 1;
          Option.iter (fun f -> flow_leave t f) flow)
    end;
    `Accepted (Time_ns.add finish t.latency)
  end

let on_congestion t hook = t.hook <- Some hook
let name t = t.link_name
let free_at t = t.free_at
let busy_time t = t.busy
let queue_depth t = t.outstanding
let peak_queue_depth t = t.peak_outstanding
let peak_flows t = t.peak_flows
let congestion_drops t = t.drops
