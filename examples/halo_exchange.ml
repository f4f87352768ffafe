(* Halo exchange: the workload the paper's progress-rule discussion is
   about (section 5.2) — written as a walkthrough of the simulator's
   layers (see ARCHITECTURE.md, which references this file).

   A 1-D domain decomposition of a heat-diffusion stencil, laid out on a
   ring interconnect so that the decomposition *is* the topology: each
   rank owns a strip of cells and every iteration exchanges one-cell
   "halos" with its two ring neighbours. Because the domain is mapped
   onto the machine, every halo message crosses exactly one hop link and
   no two flows ever share a link — the traffic pattern the congestion
   experiment (lib/experiments/congestion.ml) calls nearest-neighbor,
   and the reason meshes like Cplant are built the way they are.

   With MPI over Portals the halo messages land in the pre-posted
   receive buffers *while the interior is being computed* —
   communication and computation genuinely overlap with no library calls
   mid-compute. The program reports the mean wait that remains after
   each compute phase (it should be a few microseconds of bookkeeping,
   not a message transfer) and verifies the numerical result against a
   sequential reference.

     dune exec examples/halo_exchange.exe *)

open Sim_engine

(* ---- 1. The machine: a ring interconnect ------------------------------
   Runtime.create_world builds the scheduler, the fabric and the
   transport in one call; ~topology picks the interconnect shape
   (default is the fully-connected seed fabric). We ask for a ring and
   then read everything else — rank count, who neighbours whom — back
   from the topology, so changing [nodes] is the only edit needed to
   rescale the whole example. *)

let nodes = 8
let iterations = 20
let cells_per_rank = 64
let interior_compute = Time_ns.us 200.0

let pack a =
  let b = Bytes.create (Array.length a * 8) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (i * 8) (Int64.bits_of_float v)) a;
  b

let unpack b =
  Array.init (Bytes.length b / 8) (fun i ->
      Int64.float_of_bits (Bytes.get_int64_le b (i * 8)))

(* Sequential reference: the same diffusion over the whole (periodic)
   domain. The ring makes the domain periodic — cell 0's left neighbour
   is the last cell — matching the wraparound links of the topology. *)
let reference ~ranks () =
  let n = ranks * cells_per_rank in
  let cur = Array.init n (fun i -> float_of_int (i mod 17)) in
  let next = Array.make n 0.0 in
  for _ = 1 to iterations do
    for i = 0 to n - 1 do
      let left = cur.((i + n - 1) mod n) in
      let right = cur.((i + 1) mod n) in
      next.(i) <- (left +. cur.(i) +. right) /. 3.0
    done;
    Array.blit next 0 cur 0 n
  done;
  cur

let () =
  let world = Runtime.create_world ~topology:Simnet.Topology.Ring ~nodes () in
  (* The world hands back the topology it actually built; from here on
     the grid dimensions come from it, not from constants. *)
  let topo = Runtime.topology world in
  let ranks = Simnet.Topology.nodes topo in

  (* ---- 2. The endpoints: MPI over Portals ----------------------------
     One endpoint per rank, created before any rank runs so no early
     message can be lost (this is what Runtime.Stack.launch_on
     automates; we do it by hand here to show the seams between the
     layers). *)
  let endpoints =
    Array.init ranks (fun rank ->
        Mpi.create_portals (Runtime.transport_of_rank world rank)
          ~ranks:world.Runtime.ranks ~rank ())
  in
  let gathered = Array.make ranks [||] in

  (* ---- 3. The ranks: overlap compute with halo traffic --------------- *)
  Runtime.spawn_ranks world (fun ~rank ->
      let ep = endpoints.(rank) in
      let cpu = Runtime.host_cpu_of_rank world rank in
      let sched = Runtime.sched_of_rank world rank in
      let wait_after_compute =
        Metrics.summary (Scheduler.metrics sched) "halo.wait_us"
      in
      (* Ask the topology who our neighbours are. On a ring that is
         exactly the ±1 ranks (with wraparound), and each of these
         exchanges will ride its own private hop link. *)
      let left = (rank + ranks - 1) mod ranks in
      let right = (rank + 1) mod ranks in
      let nbrs = Simnet.Topology.neighbors topo rank in
      assert (List.mem left nbrs && List.mem right nbrs);
      let n = cells_per_rank in
      (* Strip with two ghost cells. *)
      let cur = Array.make (n + 2) 0.0 in
      let next = Array.make (n + 2) 0.0 in
      for i = 0 to n - 1 do
        cur.(i + 1) <- float_of_int (((rank * n) + i) mod 17)
      done;
      for _iter = 1 to iterations do
        (* Pre-post halo receives, then send our edge cells. Tag 1
           carries a cell travelling right (into a left ghost), tag 2 a
           cell travelling left (into a right ghost). *)
        let left_buf = Bytes.create 8 and right_buf = Bytes.create 8 in
        let recvs =
          [
            Mpi.irecv ep ~source:left ~tag:1 left_buf;
            Mpi.irecv ep ~source:right ~tag:2 right_buf;
          ]
        in
        let sends =
          [
            Mpi.isend ep ~dst:left ~tag:2 (pack [| cur.(1) |]);
            Mpi.isend ep ~dst:right ~tag:1 (pack [| cur.(n) |]);
          ]
        in
        (* Interior compute overlaps the halo traffic: no MPI calls
           here. Portals' independent progress (the paper's section 5.2
           rule) is what lets the NIC land both halos meanwhile. *)
        Cpu.compute cpu interior_compute;
        let before = Scheduler.now sched in
        ignore (Mpi.waitall ep (sends @ recvs));
        Metrics.observe wait_after_compute
          (Time_ns.to_us (Time_ns.sub (Scheduler.now sched) before));
        (* Apply halos and advance the stencil. *)
        cur.(0) <- (unpack left_buf).(0);
        cur.(n + 1) <- (unpack right_buf).(0);
        for i = 1 to n do
          next.(i) <- (cur.(i - 1) +. cur.(i) +. cur.(i + 1)) /. 3.0
        done;
        Array.blit next 1 cur 1 n
      done;
      (* Gather results at rank 0 for verification. *)
      if rank <> 0 then Mpi.send ep ~dst:0 ~tag:99 (pack (Array.sub cur 1 n))
      else begin
        gathered.(0) <- Array.sub cur 1 n;
        for _ = 1 to ranks - 1 do
          let buf = Bytes.create (n * 8) in
          let st = Mpi.recv ep ~tag:99 buf in
          gathered.(st.Mpi.source) <- unpack buf
        done
      end;
      Mpi.barrier ep;
      Mpi.finalize ep);
  Runtime.run world;

  (* ---- 4. Verification and the numbers ------------------------------- *)
  let result = Array.concat (Array.to_list gathered) in
  let expect = reference ~ranks () in
  let max_err = ref 0.0 and checksum = ref 0.0 in
  Array.iteri
    (fun i v ->
      let e = Float.abs (v -. expect.(i)) in
      if e > !max_err then max_err := e;
      checksum := !checksum +. v)
    result;
  Format.printf "halo exchange on %s: %d ranks x %d cells, %d iterations@."
    (Simnet.Topology.describe (Simnet.Topology.kind topo))
    ranks cells_per_rank iterations;
  Format.printf "simulated time: %a@." Time_ns.pp (Runtime.now world);
  Format.printf "checksum %.6f, max error vs sequential reference %.2e@."
    !checksum !max_err;
  Format.printf
    "mean wait after each %.0fus compute phase: %.2f us (overlap works)@."
    (Time_ns.to_us interior_compute)
    (match
       Metrics.Snapshot.find (Runtime.metrics_snapshot world) "halo.wait_us"
     with
    | Some (Metrics.Snapshot.Summary { mean; _ }) -> mean
    | _ -> 0.);
  Format.printf
    "peak hop-link queue depth: %d (nearest-neighbor traffic never piles up)@."
    (Array.fold_left
       (fun depth f -> max depth (Simnet.Fabric.peak_link_queue_depth f))
       0 (Runtime.shard_fabrics world));
  if !max_err > 1e-9 then begin
    Format.printf "MISMATCH@.";
    exit 1
  end
  else Format.printf "verified: distributed result matches the reference@."
