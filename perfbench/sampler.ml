(* A statistical profiler built from outside the simulator: a 1 ms
   ITIMER_PROF timer raises SIGPROF, and the handler walks the interrupted
   stack with [Printexc.get_callstack]. Each sample is charged to the
   innermost frame whose module belongs to a layer; standard-library frames
   pass the charge to their caller (see {!Layers.of_module}). Samples count
   process CPU time, so at N busy domains they arrive N times as often. *)

let interval_s = 0.001
let depth = 64
let counts = Array.make Layers.count 0
let active = ref false
let on_tick = ref (fun () -> ())

let layer_of_stack stack =
  let slots = Option.value (Printexc.backtrace_slots stack) ~default:[||] in
  let n = Array.length slots in
  let rec go i =
    if i >= n then Layers.Other
    else
      match Printexc.Slot.name slots.(i) with
      | None -> go (i + 1)
      | Some name -> (
        match Layers.of_frame name with Some l -> l | None -> go (i + 1))
  in
  go 0

let handler _ =
  if !active then begin
    let l = layer_of_stack (Printexc.get_callstack depth) in
    let i = Layers.index l in
    counts.(i) <- counts.(i) + 1
  end;
  !on_tick ()

let set_timer s =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = s; it_value = s })

(* [start ~tick ()] installs the handler and arms the timer; [tick] runs on
   every signal, sampled or not (the GC reader polls its ring there). *)
let start ?(tick = fun () -> ()) () =
  Array.fill counts 0 Layers.count 0;
  on_tick := tick;
  Sys.set_signal Sys.sigprof (Sys.Signal_handle handler);
  set_timer interval_s

let stop () =
  set_timer 0.;
  Sys.set_signal Sys.sigprof Sys.Signal_ignore;
  active := false;
  on_tick := fun () -> ()

let samples () = Array.fold_left ( + ) 0 counts

(* Share of the samples charged to each layer, in {!Layers.all} order;
   all zero when nothing was sampled. *)
let shares () =
  let total = samples () in
  List.map
    (fun l ->
      ( l,
        if total = 0 then 0.
        else float_of_int counts.(Layers.index l) /. float_of_int total ))
    Layers.all
