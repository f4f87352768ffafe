(* Host-time spans the benchmark records around its own calls into each
   layer (world construction, NI and collectives set-up, each Runtime.run,
   each Experiments call). Off by default: untimed runs pay one branch per
   call. Spans stay in memory and are written once, as Chrome trace_event
   JSON, when the workload ends. *)

type span = { name : string; cat : string; start : float; dur : float }

let enabled = ref false
let recorded : span list ref = ref []
let origin = ref 0.
let totals : (string, float) Hashtbl.t = Hashtbl.create 8

let enable () =
  enabled := true;
  recorded := [];
  origin := Unix.gettimeofday ()

let disable () = enabled := false

let time ~cat name f =
  if not !enabled then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let finish () =
      let dur = Unix.gettimeofday () -. t0 in
      recorded := { name; cat; start = t0 -. !origin; dur } :: !recorded;
      Hashtbl.replace totals cat
        (dur +. Option.value (Hashtbl.find_opt totals cat) ~default:0.)
    in
    Fun.protect ~finally:finish f
  end

(* Seconds spent in spans of category [cat] since the last [reset]. *)
let total cat = Option.value (Hashtbl.find_opt totals cat) ~default:0.
let reset () = Hashtbl.reset totals

let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.1f, \
             \"dur\": %.1f, \"pid\": 1, \"tid\": 0}\n"
            (if i = 0 then "" else ",")
            (Json.str s.name) (Json.str s.cat) (s.start *. 1e6)
            (s.dur *. 1e6))
        (List.rev !recorded);
      output_string oc "], \"displayTimeUnit\": \"ms\"}\n")
