open Sim_engine

type cell = {
  corrupt : float;
  delay : Time_ns.t;
  partition : bool;
  crashes : int;
  loss : float;
  seed : int;
}

(* Seeds of the independent fault generators inside one cell are derived
   from the cell seed with fixed offsets, so turning one axis on or off
   never perturbs another axis's random stream. *)
let seed_corrupt cell = (cell.seed * 4) + 1
let seed_delay cell = (cell.seed * 4) + 2
let seed_loss cell = (cell.seed * 4) + 3
let seed_crash cell = (cell.seed * 4) + 4

let cell ?(corrupt = 0.) ?(delay = 0) ?(partition = false) ?(crashes = 0)
    ?(loss = 0.) ~seed () =
  if corrupt < 0. || corrupt > 1. then
    invalid_arg "Chaos.cell: corrupt probability outside [0, 1]";
  if loss < 0. || loss > 1. then
    invalid_arg "Chaos.cell: loss probability outside [0, 1]";
  if delay < 0 then invalid_arg "Chaos.cell: negative delay";
  if crashes < 0 then invalid_arg "Chaos.cell: negative crash count";
  { corrupt; delay; partition; crashes; loss; seed }

let grid ?(corrupts = [ 0. ]) ?(delays = [ 0 ]) ?(partitions = [ false ])
    ?(crash_counts = [ 0 ]) ?(losses = [ 0. ]) ~seeds () =
  List.concat_map
    (fun corrupt ->
      List.concat_map
        (fun delay ->
          List.concat_map
            (fun partition ->
              List.concat_map
                (fun crashes ->
                  List.concat_map
                    (fun loss ->
                      List.map
                        (fun seed ->
                          cell ~corrupt ~delay ~partition ~crashes ~loss ~seed
                            ())
                        seeds)
                    losses)
                crash_counts)
            partitions)
        delays)
    corrupts

let faulty cell =
  cell.corrupt > 0. || cell.delay > 0 || cell.partition || cell.crashes > 0
  || cell.loss > 0.

let fault_of_cell cell =
  let models =
    List.concat
      [
        (if cell.corrupt > 0. then
           [ Simnet.Fault.corrupt ~seed:(seed_corrupt cell) ~p:cell.corrupt () ]
         else []);
        (if cell.delay > 0 then
           [ Simnet.Fault.delay ~seed:(seed_delay cell) ~mean:cell.delay () ]
         else []);
        (if cell.loss > 0. then
           [ Simnet.Fault.bernoulli ~seed:(seed_loss cell) ~p:cell.loss () ]
         else []);
      ]
  in
  match models with
  | [] -> None
  | [ m ] -> Some m
  | ms -> Some (Simnet.Fault.compose ms)

(* One symmetric cut across the middle of the node range for the middle
   half of the horizon: late enough that liveness has formed a full
   picture of the job, healed early enough that convergence after the
   heal is observable before the run ends. *)
let partition_of_cell cell ~nids ~horizon =
  if not cell.partition then []
  else
    match List.sort_uniq compare nids with
    | [] | [ _ ] -> []
    | nids ->
      let n = List.length nids in
      let group_a = List.filteri (fun i _ -> i < n / 2) nids in
      let group_b = List.filteri (fun i _ -> i >= n / 2) nids in
      Simnet.Fault.partition_schedule
        [
          {
            Simnet.Fault.group_a;
            group_b;
            one_way = false;
            cut_at = horizon / 4;
            heal_at = Some (horizon * 3 / 4);
          };
        ]

let crash_schedule_of cell ~nids ~horizon =
  if cell.crashes <= 0 then []
  else
    Simnet.Fault.random_crash_schedule ~seed:(seed_crash cell) ~nids
      ~crashes:cell.crashes ~horizon ()

let describe cell =
  let axes =
    List.concat
      [
        (if cell.corrupt > 0. then [ Printf.sprintf "corrupt=%g" cell.corrupt ]
         else []);
        (if cell.delay > 0 then
           [ Printf.sprintf "delay=%.0fus" (Time_ns.to_us cell.delay) ]
         else []);
        (if cell.partition then [ "partition" ] else []);
        (if cell.crashes > 0 then [ Printf.sprintf "crashes=%d" cell.crashes ]
         else []);
        (if cell.loss > 0. then [ Printf.sprintf "loss=%g" cell.loss ] else []);
      ]
  in
  let axes = if axes = [] then [ "clean" ] else axes in
  String.concat " " axes ^ Printf.sprintf " seed=%d" cell.seed
