(* One-sided programming on Portals: a distributed work-queue with shmem
   idioms (section 4.4's one-sided addressing; section 2's MPI-2
   one-sided heritage).

   PE 0 owns a bag of work items in a symmetric region. Workers *get*
   their next item index from the bag region, process it, *put* the
   result back into a results region, and finally set a per-worker done
   flag that PE 0 blocks on with the wait_until idiom. The owner process
   never responds to any of this traffic — every read and write is served
   by its network interface.

     dune exec examples/shmem_counters.exe *)

open Sim_engine

let workers = 4
let items = 12

let () =
  let pes = 1 + workers in
  let world = Runtime.create_world ~nodes:pes () in
  let oss =
    Array.mapi
      (fun rank pid ->
        let ni =
          Portals.Ni.create (Runtime.transport_of_rank world rank) ~id:pid ()
        in
        Onesided.create_exn ni ~ranks:world.Runtime.ranks ~rank ())
      world.Runtime.ranks
  in
  (* Symmetric allocations, same order everywhere. *)
  let bag = Array.map (fun os -> Onesided.alloc os (items * 8)) oss in
  let results = Array.map (fun os -> Onesided.alloc os (items * 8)) oss in
  let flags = Array.map (fun os -> Onesided.alloc os workers) oss in

  (* PE 0 fills its bag with work items (values to square). *)
  let bag0 = Onesided.region_bytes oss.(0) bag.(0) in
  for i = 0 to items - 1 do
    Bytes.set_int64_le bag0 (i * 8) (Int64.of_int (i + 3))
  done;

  Array.iteri
    (fun rank os ->
      Scheduler.spawn (Runtime.sched_of_rank world rank)
        ~name:(Printf.sprintf "pe%d" rank) (fun () ->
          if rank = 0 then begin
            (* The owner only waits for the done flags; it serves nothing. *)
            for w = 0 to workers - 1 do
              Onesided.wait_until os flags.(0) ~offset:w
                ~value:Onesided.barrier_value
            done;
            let out = Onesided.region_bytes os results.(0) in
            Format.printf "owner: all %d workers done@." workers;
            for i = 0 to items - 1 do
              let v = Int64.to_int (Bytes.get_int64_le out (i * 8)) in
              Format.printf "  item %2d -> %d@." i v
            done
          end
          else begin
            let w = rank - 1 in
            (* Static partition: worker w handles items w, w+workers, ... *)
            let i = ref w in
            while !i < items do
              let cell =
                Onesided.get os bag.(rank) ~pe:0 ~offset:(!i * 8) ~len:8
              in
              let v = Int64.to_int (Bytes.get_int64_le cell 0) in
              (* "Process" the item. *)
              Cpu.compute (Runtime.host_cpu_of_rank world rank) (Time_ns.us 50.0);
              let out = Bytes.create 8 in
              Bytes.set_int64_le out 0 (Int64.of_int (v * v));
              Onesided.put os results.(rank) ~pe:0 ~offset:(!i * 8) out;
              i := !i + workers
            done;
            Onesided.quiet os;
            (* Signal completion via the owner's flag region. *)
            Onesided.put os flags.(rank) ~pe:0 ~offset:w
              (Bytes.make 1 Onesided.barrier_value);
            Onesided.quiet os
          end))
    oss;
  Runtime.run world;
  (* Verify. *)
  let out = Onesided.region_bytes oss.(0) results.(0) in
  let all_ok = ref true in
  for i = 0 to items - 1 do
    let v = Int64.to_int (Bytes.get_int64_le out (i * 8)) in
    if v <> (i + 3) * (i + 3) then all_ok := false
  done;
  Format.printf "owner host CPU stolen: %a@." Time_ns.pp
    (Cpu.stolen_total (Runtime.host_cpu_of_rank world 0));
  if !all_ok then Format.printf "verified: %d items squared one-sidedly@." items
  else begin
    Format.printf "MISMATCH@.";
    exit 1
  end
