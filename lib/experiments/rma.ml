open Sim_engine

(* One-sided RMA workloads over the MPI-3-style windows in lib/onesided
   (put/get/accumulate plus the Portals atomics of §4.4's one-sided
   addressing, executed at match time on the target interface):

     latency    put+flush and fetch_add round trips vs a send/recv RTT
     passive    passive-target progress while the target CPU computes —
                the paper's Figure 6 argument generalized to RMA: the
                target never calls the library, yet atomics complete
     halo       the halo-exchange stencil written twice, send/recv and
                RMA windows, and the results compared bit for bit
     hashtable  a distributed hash table built on CAS-insert linear
                probing and a fetch_add occupancy counter

   Every workload is deterministic for a fixed seed; the bench harness
   meters each as an RMA.<workload> portals-bench/2 record. *)

type row = {
  workload : string;
  value : float;
  unit_ : string;
  detail : string;
  sim_time_us : float; (* simulated span the workload's worlds covered *)
}

type t = { rows : row list }

let workload_names = [ "latency"; "passive"; "halo"; "hashtable" ]

(* --- workload parameters (full / --quick) ------------------------------ *)

type params = {
  lat_iters : int;
  passive_ops : int;
  passive_busy_us : float; (* one target compute slice *)
  halo_ranks : int;
  halo_cells : int;
  halo_iters : int;
  ht_ranks : int;
  ht_slots : int;
  ht_keys_per_rank : int;
}

(* The halo and hashtable worlds are sized 16 nodes in both profiles so
   the smoke suite can pin them onto a 4x4 torus (--topology torus2d:4x4
   applies to every world a workload builds). *)
let full_params =
  {
    lat_iters = 40;
    passive_ops = 24;
    passive_busy_us = 2_000.;
    halo_ranks = 16;
    halo_cells = 16;
    halo_iters = 10;
    ht_ranks = 16;
    ht_slots = 192;
    ht_keys_per_rank = 8;
  }

let quick_params =
  {
    lat_iters = 8;
    passive_ops = 6;
    passive_busy_us = 500.;
    halo_ranks = 16;
    halo_cells = 8;
    halo_iters = 4;
    ht_ranks = 16;
    ht_slots = 64;
    ht_keys_per_rank = 2;
  }

(* --- shared plumbing --------------------------------------------------- *)

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* One Onesided endpoint per rank, created before any fiber runs (the
   symmetric-heap discipline: every subsequent alloc/win_create must be
   issued in the same order on every rank). *)
let make_pes world =
  Array.mapi
    (fun rank pid ->
      let ni = Portals.Ni.create world.Runtime.transport ~id:pid () in
      Onesided.create_exn ni ~ranks:world.Runtime.ranks ~rank ())
    world.Runtime.ranks

let make_mpi world =
  Array.init
    (Array.length world.Runtime.ranks)
    (fun rank ->
      Mpi.create_portals world.Runtime.transport ~ranks:world.Runtime.ranks
        ~rank ())

let pack1 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float v);
  b

let unpack1 b = Int64.float_of_bits (Bytes.get_int64_le b 0)

(* --- latency: put+flush / fetch_add vs send/recv ----------------------- *)

let run_latency ~seed ~p =
  let put_us = ref [] and faa_us = ref [] in
  let world = Runtime.create_world ~seed ~nodes:2 () in
  let sched = world.Runtime.sched in
  let oss = make_pes world in
  let wins = Array.map (fun os -> Onesided.win_create os ~size:16) oss in
  Scheduler.spawn sched ~name:"rma-initiator" (fun () ->
      let w = wins.(0) in
      let payload = Bytes.make 8 '\x2a' in
      for i = 0 to p.lat_iters do
        (* One warmup, then the measured iterations. *)
        let t0 = Scheduler.now sched in
        Onesided.Win.put w ~rank:1 ~offset:0 payload;
        Onesided.Win.flush w ~rank:1;
        if i > 0 then
          put_us :=
            Time_ns.to_us (Time_ns.sub (Scheduler.now sched) t0) :: !put_us
      done;
      for i = 0 to p.lat_iters do
        let t0 = Scheduler.now sched in
        ignore (Onesided.Win.fetch_and_add w ~rank:1 ~offset:8 1L);
        if i > 0 then
          faa_us :=
            Time_ns.to_us (Time_ns.sub (Scheduler.now sched) t0) :: !faa_us
      done);
  Runtime.run world;
  let t_rma = Time_ns.to_us (Scheduler.now sched) in
  (* The two-sided yardstick: an 8-byte ping-pong over MPI. *)
  let rtts = ref [] in
  let world2 = Runtime.create_world ~seed ~nodes:2 () in
  let sched2 = world2.Runtime.sched in
  let eps = make_mpi world2 in
  Runtime.spawn_ranks world2 (fun ~rank ->
      let ep = eps.(rank) in
      let buf = Bytes.create 8 and msg = Bytes.create 8 in
      if rank = 0 then
        for i = 0 to p.lat_iters do
          let t0 = Scheduler.now sched2 in
          Mpi.send ep ~dst:1 ~tag:1 msg;
          ignore (Mpi.recv ep ~source:1 ~tag:2 buf);
          if i > 0 then
            rtts :=
              Time_ns.to_us (Time_ns.sub (Scheduler.now sched2) t0) :: !rtts
        done
      else
        for _ = 0 to p.lat_iters do
          ignore (Mpi.recv ep ~source:0 ~tag:1 buf);
          Mpi.send ep ~dst:0 ~tag:2 msg
        done;
      Mpi.barrier ep;
      Mpi.finalize ep);
  Runtime.run world2;
  let pm = mean !put_us and fm = mean !faa_us and rm = mean !rtts in
  {
    workload = "latency";
    value = pm;
    unit_ = "us";
    detail =
      Printf.sprintf
        "put+flush %.1fus, fetch_add %.1fus vs send/recv rtt %.1fus" pm fm rm;
    sim_time_us = t_rma +. Time_ns.to_us (Scheduler.now sched2);
  }

(* --- passive: progress while the target CPU is busy -------------------- *)

(* The target rank computes in long slices and never touches the
   library; the initiator's fetch_adds are served entirely by the target
   interface (application bypass extended to read-modify-write). *)
let rma_busy_leg ~seed ~p kind =
  let world = Runtime.create_world ~transport:kind ~seed ~nodes:2 () in
  let sched = world.Runtime.sched in
  let oss = make_pes world in
  let wins = Array.map (fun os -> Onesided.win_create os ~size:8) oss in
  let lats = ref [] in
  Runtime.spawn_ranks world (fun ~rank ->
      if rank = 1 then begin
        let cpu = Runtime.host_cpu_of_rank world 1 in
        for _ = 1 to p.passive_ops do
          Cpu.compute cpu (Time_ns.us p.passive_busy_us)
        done
      end
      else begin
        let w = wins.(0) in
        for i = 0 to p.passive_ops do
          let t0 = Scheduler.now sched in
          ignore (Onesided.Win.fetch_and_add w ~rank:1 ~offset:0 1L);
          if i > 0 then
            lats :=
              Time_ns.to_us (Time_ns.sub (Scheduler.now sched) t0) :: !lats
        done
      end);
  Runtime.run world;
  (mean !lats, Time_ns.to_us (Scheduler.now sched))

(* The same shape over send/recv: the target only enters the library
   between compute slices, so every echo waits out the current slice. *)
let mpi_busy_leg ~seed ~p =
  let world = Runtime.create_world ~seed ~nodes:2 () in
  let sched = world.Runtime.sched in
  let eps = make_mpi world in
  let lats = ref [] in
  Runtime.spawn_ranks world (fun ~rank ->
      let ep = eps.(rank) in
      if rank = 1 then begin
        let cpu = Runtime.host_cpu_of_rank world 1 in
        let b = Bytes.create 8 in
        for _ = 0 to p.passive_ops do
          let r = Mpi.irecv ep ~source:0 ~tag:1 b in
          Cpu.compute cpu (Time_ns.us p.passive_busy_us);
          ignore (Mpi.waitall ep [ r ]);
          Mpi.send ep ~dst:0 ~tag:2 b
        done
      end
      else begin
        let b = Bytes.create 8 and msg = Bytes.create 8 in
        for i = 0 to p.passive_ops do
          let t0 = Scheduler.now sched in
          Mpi.send ep ~dst:1 ~tag:1 msg;
          ignore (Mpi.recv ep ~source:1 ~tag:2 b);
          if i > 0 then
            lats :=
              Time_ns.to_us (Time_ns.sub (Scheduler.now sched) t0) :: !lats
        done
      end;
      Mpi.barrier ep;
      Mpi.finalize ep);
  Runtime.run world;
  (mean !lats, Time_ns.to_us (Scheduler.now sched))

let run_passive ~seed ~p =
  let off, t1 = rma_busy_leg ~seed ~p Runtime.Offload in
  let kern, t2 = rma_busy_leg ~seed ~p Runtime.Kernel_interrupt in
  let mpi, t3 = mpi_busy_leg ~seed ~p in
  let ratio = if off <= 0. then 0. else mpi /. off in
  {
    workload = "passive";
    value = ratio;
    unit_ = "x";
    detail =
      Printf.sprintf
        "target busy %.0fus/slice: fetch_add offload %.1fus, kernel %.1fus; \
         send/recv echo %.1fus"
        p.passive_busy_us off kern mpi;
    sim_time_us = t1 +. t2 +. t3;
  }

(* --- halo: RMA vs send/recv, compared bit for bit ---------------------- *)

let halo_init ~rank ~n i = float_of_int (((rank * n) + i) mod 17)

(* The 1-D diffusion stencil of examples/halo_exchange.ml, shrunk, with
   the exchange over pre-posted receives. *)
let halo_sendrecv ~seed ~p =
  let ranks = p.halo_ranks and n = p.halo_cells in
  let result = Array.make ranks [||] in
  let world = Runtime.create_world ~seed ~nodes:ranks () in
  let eps = make_mpi world in
  Runtime.spawn_ranks world (fun ~rank ->
      let ep = eps.(rank) in
      let left = (rank + ranks - 1) mod ranks
      and right = (rank + 1) mod ranks in
      let cur = Array.make (n + 2) 0.0 and next = Array.make (n + 2) 0.0 in
      for i = 0 to n - 1 do
        cur.(i + 1) <- halo_init ~rank ~n i
      done;
      for _iter = 1 to p.halo_iters do
        let lb = Bytes.create 8 and rb = Bytes.create 8 in
        let recvs =
          [
            Mpi.irecv ep ~source:left ~tag:1 lb;
            Mpi.irecv ep ~source:right ~tag:2 rb;
          ]
        in
        let sends =
          [
            Mpi.isend ep ~dst:left ~tag:2 (pack1 cur.(1));
            Mpi.isend ep ~dst:right ~tag:1 (pack1 cur.(n));
          ]
        in
        ignore (Mpi.waitall ep (sends @ recvs));
        cur.(0) <- unpack1 lb;
        cur.(n + 1) <- unpack1 rb;
        for i = 1 to n do
          next.(i) <- (cur.(i - 1) +. cur.(i) +. cur.(i + 1)) /. 3.0
        done;
        Array.blit next 1 cur 1 n
      done;
      result.(rank) <- Array.sub cur 1 n;
      Mpi.barrier ep;
      Mpi.finalize ep);
  Runtime.run world;
  (result, Time_ns.to_us (Scheduler.now world.Runtime.sched))

(* The same stencil over RMA windows. Each rank's window holds its two
   ghost slots, double-buffered by iteration parity so a neighbour
   running one iteration ahead writes the other slot pair; flag bytes in
   a symmetric side region carry the iteration number, so the wait is
   the shmem wait_until idiom and the target never receives. *)
let halo_rma ~seed ~p =
  let ranks = p.halo_ranks and n = p.halo_cells in
  let result = Array.make ranks [||] in
  let world = Runtime.create_world ~seed ~nodes:ranks () in
  let oss = make_pes world in
  (* 2 parities x (left ghost, right ghost). *)
  let wins = Array.map (fun os -> Onesided.win_create os ~size:32) oss in
  (* 2 parities x (flag from left, flag from right). *)
  let flags = Array.map (fun os -> Onesided.alloc os 4) oss in
  Runtime.spawn_ranks world (fun ~rank ->
      let os = oss.(rank) and w = wins.(rank) in
      let left = (rank + ranks - 1) mod ranks
      and right = (rank + 1) mod ranks in
      let cur = Array.make (n + 2) 0.0 and next = Array.make (n + 2) 0.0 in
      for i = 0 to n - 1 do
        cur.(i + 1) <- halo_init ~rank ~n i
      done;
      Onesided.Win.lock_all w;
      for iter = 1 to p.halo_iters do
        let par = iter mod 2 in
        let fv = Char.chr (iter mod 256) in
        (* My first cell is the right ghost of my left neighbour; my
           last cell the left ghost of my right neighbour. *)
        Onesided.Win.put w ~rank:left ~offset:((par * 16) + 8) (pack1 cur.(1));
        Onesided.Win.put w ~rank:right ~offset:(par * 16) (pack1 cur.(n));
        Onesided.Win.flush w ~rank:left;
        Onesided.Win.flush w ~rank:right;
        (* Data is remotely complete; now raise the iteration flags. *)
        Onesided.put os flags.(rank) ~pe:right ~offset:par (Bytes.make 1 fv);
        Onesided.put os flags.(rank) ~pe:left ~offset:(2 + par)
          (Bytes.make 1 fv);
        Onesided.wait_until os flags.(rank) ~offset:par ~value:fv;
        Onesided.wait_until os flags.(rank) ~offset:(2 + par) ~value:fv;
        let data = Onesided.Win.local_data w in
        cur.(0) <- Int64.float_of_bits (Bytes.get_int64_le data (par * 16));
        cur.(n + 1) <-
          Int64.float_of_bits (Bytes.get_int64_le data ((par * 16) + 8));
        for i = 1 to n do
          next.(i) <- (cur.(i - 1) +. cur.(i) +. cur.(i + 1)) /. 3.0
        done;
        Array.blit next 1 cur 1 n
      done;
      Onesided.Win.unlock_all w;
      Onesided.quiet os;
      result.(rank) <- Array.sub cur 1 n);
  Runtime.run world;
  (result, Time_ns.to_us (Scheduler.now world.Runtime.sched))

let run_halo ~seed ~p =
  let mpi_result, t_mpi = halo_sendrecv ~seed ~p in
  let rma_result, t_rma = halo_rma ~seed ~p in
  let mismatched = ref 0 and total = ref 0 in
  Array.iteri
    (fun r a ->
      Array.iteri
        (fun i v ->
          incr total;
          if Int64.bits_of_float v <> Int64.bits_of_float mpi_result.(r).(i)
          then incr mismatched)
        a)
    rma_result;
  let ok = !mismatched = 0 && !total = p.halo_ranks * p.halo_cells in
  {
    workload = "halo";
    value = (if ok then 1.0 else 0.0);
    unit_ = "ok";
    detail =
      Printf.sprintf "%d ranks x %d cells x %d iters: %s" p.halo_ranks
        p.halo_cells p.halo_iters
        (if ok then "RMA result byte-identical to send/recv"
         else Printf.sprintf "%d/%d cells differ" !mismatched !total);
    sim_time_us = t_mpi +. t_rma;
  }

(* --- hashtable: CAS-insert linear probing ------------------------------ *)

(* Slot s lives on rank [s mod n]; each rank's window is [occupancy
   word | slot words], the occupancy counter used on rank 0 only. A key
   claims a slot with compare-and-swap against the empty word and walks
   forward on failure — no locks, no target involvement. *)
let run_hashtable ~seed ~p =
  let n = p.ht_ranks and slots = p.ht_slots in
  let per_rank = (slots + n - 1) / n in
  let world = Runtime.create_world ~seed ~nodes:n () in
  let oss = make_pes world in
  let wins =
    Array.map (fun os -> Onesided.win_create os ~size:(8 + (per_rank * 8))) oss
  in
  let max_probes = ref 0 in
  Runtime.spawn_ranks world (fun ~rank ->
      let w = wins.(rank) in
      for i = 0 to p.ht_keys_per_rank - 1 do
        let key = Int64.of_int ((rank * p.ht_keys_per_rank) + i + 1) in
        (* Low bits of a wide multiply, folded once — deliberately not a
           permutation of the key space, so consecutive keys do collide
           and the probe loop is exercised. *)
        let mixed = Int64.mul key 0x9E3779B97F4A7C15L in
        let mixed = Int64.logxor mixed (Int64.shift_right_logical mixed 17) in
        let h = Int64.to_int (Int64.logand mixed 0x3FFFFFFFL) mod slots in
        let rec probe tries =
          if tries >= slots then failwith "Rma.hashtable: table full"
          else begin
            let slot = (h + tries) mod slots in
            let owner = slot mod n and off = 8 + (slot / n * 8) in
            let old =
              Onesided.Win.compare_and_swap w ~rank:owner ~offset:off
                ~expected:0L ~desired:key
            in
            if old = 0L then tries + 1 else probe (tries + 1)
          end
        in
        let probes = probe 0 in
        if probes > !max_probes then max_probes := probes;
        ignore (Onesided.Win.fetch_and_add w ~rank:0 ~offset:0 1L)
      done);
  Runtime.run world;
  let occupancy = Bytes.get_int64_le (Onesided.Win.local_data wins.(0)) 0 in
  let found = ref 0 in
  Array.iter
    (fun w ->
      let d = Onesided.Win.local_data w in
      for s = 0 to per_rank - 1 do
        if Bytes.get_int64_le d (8 + (s * 8)) <> 0L then incr found
      done)
    wins;
  let expect = n * p.ht_keys_per_rank in
  let ok = !found = expect && Int64.to_int occupancy = expect in
  {
    workload = "hashtable";
    value = Int64.to_float occupancy;
    unit_ = "keys";
    detail =
      Printf.sprintf
        "%d CAS inserts over %d slots on %d ranks: occupancy %Ld, %d slots \
         filled, max probes %d%s"
        expect slots n occupancy !found !max_probes
        (if ok then "" else " (MISMATCH)");
    sim_time_us = Time_ns.to_us (Scheduler.now world.Runtime.sched);
  }

(* --- driver ------------------------------------------------------------ *)

let run_workload ~seed ~p = function
  | "latency" -> run_latency ~seed ~p
  | "passive" -> run_passive ~seed ~p
  | "halo" -> run_halo ~seed ~p
  | "hashtable" -> run_hashtable ~seed ~p
  | other -> invalid_arg (Printf.sprintf "Rma: unknown workload %S" other)

let run ?(workloads = workload_names) ?(quick = false) ?(seed = 0) () =
  let p = if quick then quick_params else full_params in
  List.iter
    (fun w ->
      if not (List.mem w workload_names) then
        invalid_arg
          (Printf.sprintf "Rma: unknown workload %S (valid: %s)" w
             (String.concat ", " workload_names)))
    workloads;
  { rows = List.map (run_workload ~seed ~p) workloads }

let find_row t ~workload = List.find_opt (fun r -> r.workload = workload) t.rows

let pp ppf t =
  Format.fprintf ppf
    "one-sided RMA (windows + Portals atomics; see EXPERIMENTS.md)@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %10.1f %-4s %s@." r.workload r.value r.unit_
        r.detail)
    t.rows

(* --- perf records ------------------------------------------------------ *)

let record_id workload = "RMA." ^ workload

let perf_records ?(workloads = workload_names) ?(quick = false) ?(seed = 0) ()
    =
  let p = if quick then quick_params else full_params in
  List.map
    (fun w ->
      Perf.meter ~id:(record_id w) (fun () -> ignore (run_workload ~seed ~p w)))
    workloads
