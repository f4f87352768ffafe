(* The benchmark-stack registry: one row per named MPI-over-wire
   combination the paper's comparison covers. A stack pairs a wire
   placement (World.transport_kind) with the MPI endpoint constructor
   that runs over it, so experiment code can iterate "for every stack"
   and build identical workloads over each. *)

type t = {
  name : string;
  kind : World.transport_kind;
  create :
    Simnet.Transport.t -> ranks:Simnet.Proc_id.t array -> rank:int -> Mpi.t;
}

let all =
  [
    {
      name = "portals";
      kind = World.Offload;
      create = (fun tp ~ranks ~rank -> Mpi.create_portals tp ~ranks ~rank ());
    };
    {
      name = "gm";
      kind = World.Offload;
      create = (fun tp ~ranks ~rank -> Mpi.create_gm tp ~ranks ~rank ());
    };
    {
      name = "rtscts";
      kind = World.Rtscts;
      create = (fun tp ~ranks ~rank -> Mpi.create_portals tp ~ranks ~rank ());
    };
    {
      name = "ibverbs";
      kind = World.Offload;
      create = (fun tp ~ranks ~rank -> Mpi.create_ibverbs tp ~ranks ~rank ());
    };
  ]

let names = List.map (fun s -> s.name) all
let find name = List.find_opt (fun s -> s.name = name) all

let find_exn name =
  match find name with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Runtime.Stack: unknown stack %S (valid: %s)" name
         (String.concat ", " names))

(* Run one MPI job over a world: endpoints exist before any rank runs,
   so no early message can find its destination unregistered. The world's
   transport must match [stack.kind]'s placement for the name to mean
   what it says. *)
let launch_on world stack main =
  let endpoints =
    Array.init (World.job_size world) (fun rank ->
        (* Over the rank's owner-shard transport (= [world.transport]
           sequentially). *)
        stack.create
          (World.transport_of_rank world rank)
          ~ranks:world.World.ranks ~rank)
  in
  World.spawn_ranks world (fun ~rank ->
      let ep = endpoints.(rank) in
      main ep;
      (* Finalize is collective (as in MPI): without the barrier, a rank
         that finished early would unregister while a peer's transfer is
         still mid-protocol (e.g. an RTS/CTS handshake), dropping it.
         Tolerant: ranks whose node crashed are skipped, so survivors
         still shut down cleanly instead of deadlocking. *)
      Mpi.barrier ~tolerant:true ep;
      Mpi.finalize ep);
  World.run world;
  world
