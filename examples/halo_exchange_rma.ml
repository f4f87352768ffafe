(* The halo exchange of examples/halo_exchange.ml rewritten over
   one-sided RMA windows (lib/onesided) — same machine, same domain
   decomposition, same arithmetic, and a bit-identical result; only the
   communication layer changes.

   Instead of pre-posted receives, every rank exposes a window holding
   its two ghost slots. Each iteration a rank *puts* its edge cells
   straight into its neighbours' ghost slots, overlaps the interior
   compute with those puts in flight, flushes, and raises a flag byte in
   the neighbour's flag region (the shmem wait_until idiom). The target
   application never calls into the library for any of this — delivery,
   acknowledgment and the flag write are all Portals processing on the
   target interface (application bypass, section 5.1).

   Ghost slots are double-buffered by iteration parity: a neighbour can
   run at most one iteration ahead (its next flag needs our previous
   one), so writes for iteration k+1 land in the other slot pair and
   never clobber an unread ghost. The flag byte carries the iteration
   number, so a stale flag can never satisfy the wait.

   The final gather is one-sided too: every rank puts its strip into
   rank 0's results region and raises a per-rank done flag.

     dune exec examples/halo_exchange_rma.exe *)

open Sim_engine

let nodes = 8
let iterations = 20
let cells_per_rank = 64
let interior_compute = Time_ns.us 200.0

let pack a =
  let b = Bytes.create (Array.length a * 8) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (i * 8) (Int64.bits_of_float v)) a;
  b

(* Sequential reference — identical to examples/halo_exchange.ml, so the
   two distributed variants are checked against the same yardstick. *)
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
  let topo = Runtime.topology world in
  let ranks = Simnet.Topology.nodes topo in

  (* One endpoint per rank over its own interface, then the symmetric
     allocations — same order on every rank, the shmem discipline. *)
  let oss =
    Array.mapi
      (fun rank pid ->
        let ni =
          Portals.Ni.create (Runtime.transport_of_rank world rank) ~id:pid ()
        in
        Onesided.create_exn ni ~ranks:world.Runtime.ranks ~rank ())
      world.Runtime.ranks
  in
  (* 2 parities x (left ghost, right ghost), 8 bytes each. *)
  let wins = Array.map (fun os -> Onesided.win_create os ~size:32) oss in
  (* 2 parities x (flag from left, flag from right). *)
  let flags = Array.map (fun os -> Onesided.alloc os 4) oss in
  (* Gather target on rank 0: every rank's strip, and a done flag each. *)
  let results =
    Array.map (fun os -> Onesided.alloc os (ranks * cells_per_rank * 8)) oss
  in
  let dones = Array.map (fun os -> Onesided.alloc os ranks) oss in

  Runtime.spawn_ranks world (fun ~rank ->
      let os = oss.(rank) and w = wins.(rank) in
      let cpu = Runtime.host_cpu_of_rank world rank in
      let sched = Runtime.sched_of_rank world rank in
      let wait_after_compute =
        Metrics.summary (Scheduler.metrics sched) "halo.wait_us"
      in
      let left = (rank + ranks - 1) mod ranks in
      let right = (rank + 1) mod ranks in
      let nbrs = Simnet.Topology.neighbors topo rank in
      assert (List.mem left nbrs && List.mem right nbrs);
      let n = cells_per_rank in
      let cur = Array.make (n + 2) 0.0 in
      let next = Array.make (n + 2) 0.0 in
      for i = 0 to n - 1 do
        cur.(i + 1) <- float_of_int (((rank * n) + i) mod 17)
      done;
      (* One passive-target access epoch spans the whole run. *)
      Onesided.Win.lock_all w;
      for iter = 1 to iterations do
        let par = iter mod 2 in
        let fv = Char.chr (iter mod 256) in
        (* Push our edges into the neighbours' ghost slots: our first
           cell is the left neighbour's right ghost, our last cell the
           right neighbour's left ghost. *)
        Onesided.Win.put w ~rank:left ~offset:((par * 16) + 8)
          (pack [| cur.(1) |]);
        Onesided.Win.put w ~rank:right ~offset:(par * 16) (pack [| cur.(n) |]);
        (* Interior compute overlaps the puts in flight — no library
           calls here, and the stencil for cells 2..n-1 needs no ghost. *)
        Cpu.compute cpu interior_compute;
        for i = 2 to n - 1 do
          next.(i) <- (cur.(i - 1) +. cur.(i) +. cur.(i + 1)) /. 3.0
        done;
        let before = Scheduler.now sched in
        Onesided.Win.flush w ~rank:left;
        Onesided.Win.flush w ~rank:right;
        (* Data is remotely complete; raise this iteration's flags. *)
        Onesided.put os flags.(rank) ~pe:right ~offset:par (Bytes.make 1 fv);
        Onesided.put os flags.(rank) ~pe:left ~offset:(2 + par)
          (Bytes.make 1 fv);
        Onesided.wait_until os flags.(rank) ~offset:par ~value:fv;
        Onesided.wait_until os flags.(rank) ~offset:(2 + par) ~value:fv;
        Metrics.observe wait_after_compute
          (Time_ns.to_us (Time_ns.sub (Scheduler.now sched) before));
        (* Apply the freshly-landed ghosts and finish the edge cells. *)
        let data = Onesided.Win.local_data w in
        cur.(0) <- Int64.float_of_bits (Bytes.get_int64_le data (par * 16));
        cur.(n + 1) <-
          Int64.float_of_bits (Bytes.get_int64_le data ((par * 16) + 8));
        next.(1) <- (cur.(0) +. cur.(1) +. cur.(2)) /. 3.0;
        next.(n) <- (cur.(n - 1) +. cur.(n) +. cur.(n + 1)) /. 3.0;
        Array.blit next 1 cur 1 n
      done;
      Onesided.Win.unlock_all w;
      (* One-sided gather: put our strip into rank 0's results region,
         then raise our done flag there. *)
      Onesided.put os results.(rank) ~pe:0 ~offset:(rank * n * 8)
        (pack (Array.sub cur 1 n));
      Onesided.quiet os;
      Onesided.put os dones.(rank) ~pe:0 ~offset:rank
        (Bytes.make 1 Onesided.barrier_value);
      Onesided.quiet os;
      if rank = 0 then
        for r = 0 to ranks - 1 do
          Onesided.wait_until os dones.(rank) ~offset:r
            ~value:Onesided.barrier_value
        done);
  Runtime.run world;

  (* Verification: against the sequential reference, and bit-for-bit —
     the same arithmetic in the same order must give the same doubles,
     so this result is byte-identical to the send/recv variant's. *)
  let out = Onesided.region_bytes oss.(0) results.(0) in
  let total = ranks * cells_per_rank in
  let expect = reference ~ranks () in
  let max_err = ref 0.0 and checksum = ref 0.0 and exact = ref 0 in
  for i = 0 to total - 1 do
    let bits = Bytes.get_int64_le out (i * 8) in
    let v = Int64.float_of_bits bits in
    let e = Float.abs (v -. expect.(i)) in
    if e > !max_err then max_err := e;
    if bits = Int64.bits_of_float expect.(i) then incr exact;
    checksum := !checksum +. v
  done;
  Format.printf "halo exchange (RMA) on %s: %d ranks x %d cells, %d iterations@."
    (Simnet.Topology.describe (Simnet.Topology.kind topo))
    ranks cells_per_rank iterations;
  Format.printf "simulated time: %a@." Time_ns.pp (Runtime.now world);
  Format.printf "checksum %.6f, max error vs sequential reference %.2e@."
    !checksum !max_err;
  Format.printf
    "mean wait after each %.0fus compute phase: %.2f us (puts overlapped)@."
    (Time_ns.to_us interior_compute)
    (match
       Metrics.Snapshot.find (Runtime.metrics_snapshot world) "halo.wait_us"
     with
    | Some (Metrics.Snapshot.Summary { mean; _ }) -> mean
    | _ -> 0.);
  Format.printf "cells bit-identical to the reference: %d/%d@." !exact total;
  if !max_err > 1e-9 || !exact <> total then begin
    Format.printf "MISMATCH@.";
    exit 1
  end
  else
    Format.printf
      "verified: byte-identical to the send/recv variant's result@."
