(* Host time spent in the OCaml runtime's collector, read from this
   process's own Runtime_events ring. Phases nest (a minor collection
   inside a major slice, say); only the outermost phase of each domain is
   counted, so nothing is counted twice. Explicit collections the
   benchmark itself requests between passes (Gc.full_major) are left
   out, as is time a domain spends parked on a condition variable. The
   ring file goes wherever OCAML_RUNTIME_EVENTS_DIR pointed when the
   process started. *)

module RE = Runtime_events

let max_domains = 128
let depth = Array.make max_domains 0
let began = Array.make max_domains 0L
let counted = Array.make max_domains false
let total_ns = ref 0L
let lost = ref 0

let excluded = function
  | RE.EV_EXPLICIT_GC_SET | RE.EV_EXPLICIT_GC_STAT | RE.EV_EXPLICIT_GC_MINOR
  | RE.EV_EXPLICIT_GC_MAJOR | RE.EV_EXPLICIT_GC_FULL_MAJOR
  | RE.EV_EXPLICIT_GC_COMPACT | RE.EV_DOMAIN_CONDITION_WAIT ->
    true
  | _ -> false

let runtime_begin d ts phase =
  if d < max_domains then begin
    if depth.(d) = 0 then begin
      began.(d) <- RE.Timestamp.to_int64 ts;
      counted.(d) <- not (excluded phase)
    end;
    depth.(d) <- depth.(d) + 1
  end

let runtime_end d ts _phase =
  if d < max_domains && depth.(d) > 0 then begin
    depth.(d) <- depth.(d) - 1;
    if depth.(d) = 0 && counted.(d) then
      total_ns :=
        Int64.add !total_ns (Int64.sub (RE.Timestamp.to_int64 ts) began.(d))
  end

let callbacks =
  RE.Callbacks.create ~runtime_begin ~runtime_end
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let cursor = ref None

(* Called from the sampler's signal handler too, on whichever domain takes
   the signal, possibly while another poll is in progress: the flag keeps
   the cursor single-reader. *)
let polling = Atomic.make false

let poll () =
  match !cursor with
  | Some c when Atomic.compare_and_set polling false true ->
    Fun.protect
      ~finally:(fun () -> Atomic.set polling false)
      (fun () -> ignore (RE.read_poll c callbacks None))
  | _ -> ()

(* Recording is paused until {!resume}: only the stretches between a
   [resume] and the next [pause] are counted. *)
let start () =
  RE.start ();
  if Option.is_none !cursor then cursor := Some (RE.create_cursor None);
  RE.pause ();
  poll ();
  total_ns := 0L;
  lost := 0

let resume () = RE.resume ()

let pause () =
  RE.pause ();
  poll ()

let seconds () = Int64.to_float !total_ns *. 1e-9
let lost_events () = !lost
