open Sim_engine

type cell = {
  corrupt : float;
  delay : Time_ns.t;
  partition : bool;
  crashes : int;
  loss : float;
  seed : int;
}

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
