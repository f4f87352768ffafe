open Sim_engine
module P = Portals

type report = { job_id : int; statuses : int array; elapsed : Time_ns.t }

let control_portal = 2
let launcher_pid = 63
let agent_pid_base = 32

(* Message naming on the control portal: kind, job, rank. *)
let bits ~kind ~job ~rank =
  let open P.Match_bits in
  logor
    (field ~shift:60 ~width:2 kind)
    (logor (field ~shift:32 ~width:20 job) (field ~shift:0 ~width:16 rank))

let kind_start = 0
let kind_exit = 1

(* A tiny pooled endpoint: catch-all slab + claim-by-bits, the same
   expected-message discipline the collectives use. *)
type endpoint = { ni : P.Ni.t; pool : Collectives.Pool.t }

let make_endpoint transport pid =
  let ni = P.Ni.create transport ~id:pid () in
  let pool =
    Collectives.Pool.create ni ~portal_index:control_portal ~slab_size:16_384
      ~slab_count:2 ()
  in
  { ni; pool }

let encode_start ~job ~size =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int job);
  Bytes.set_int64_le b 8 (Int64.of_int size);
  b

let encode_exit status =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int status);
  b

let run_job ?(job_id = 1) world main =
  let n = World.job_size world in
  let launcher_id =
    Simnet.Proc_id.make ~nid:0 ~pid:launcher_pid
  in
  (* Each endpoint lives on its node's shard: the launcher on rank 0's
     (node 0), every agent on its own rank's. *)
  let launcher = make_endpoint (World.transport_of_rank world 0) launcher_id in
  let launcher_sched = World.sched_of_rank world 0 in
  let agents =
    Array.init n (fun rank ->
        let app = world.World.ranks.(rank) in
        let agent_id =
          Simnet.Proc_id.make ~nid:app.Simnet.Proc_id.nid
            ~pid:(agent_pid_base + app.Simnet.Proc_id.pid)
        in
        (rank, make_endpoint (World.transport_of_rank world rank) agent_id))
  in
  let statuses = Array.make n min_int in
  let started = ref Time_ns.zero in
  let finished = ref Time_ns.zero in
  (* Per-rank control agents: wait for start, run the main, report. *)
  Array.iter
    (fun (rank, agent) ->
      Scheduler.spawn (World.sched_of_rank world rank)
        ~name:(Printf.sprintf "ctl-agent%d" rank) (fun () ->
          let start =
            Collectives.Pool.recv agent.pool
              ~bits:(bits ~kind:kind_start ~job:job_id ~rank)
          in
          let job = Int64.to_int (Bytes.get_int64_le start 0) in
          let size = Int64.to_int (Bytes.get_int64_le start 8) in
          assert (job = job_id && size = n);
          let status = main ~rank in
          Collectives.Pool.send agent.pool ~dst:launcher_id
            ~bits:(bits ~kind:kind_exit ~job:job_id ~rank)
            (encode_exit status)))
    agents;
  (* The launcher: start everyone, then gather every exit status. *)
  Scheduler.spawn launcher_sched ~name:"yod" (fun () ->
      started := Scheduler.now launcher_sched;
      Array.iter
        (fun (rank, agent) ->
          Collectives.Pool.send launcher.pool ~dst:(P.Ni.id agent.ni)
            ~bits:(bits ~kind:kind_start ~job:job_id ~rank)
            (encode_start ~job:job_id ~size:n))
        agents;
      for rank = 0 to n - 1 do
        let exit_msg =
          Collectives.Pool.recv launcher.pool
            ~bits:(bits ~kind:kind_exit ~job:job_id ~rank)
        in
        statuses.(rank) <- Int64.to_int (Bytes.get_int64_le exit_msg 0)
      done;
      finished := Scheduler.now launcher_sched);
  World.run world;
  { job_id; statuses; elapsed = Time_ns.sub !finished !started }
