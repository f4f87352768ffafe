module Pool = Pool
module Plan = Plan
module P = Portals

type t = {
  pool : Pool.t;
  ranks : Simnet.Proc_id.t array;
  my_rank : int;
  mutable seq : int;
  (* When set, every protocol hop charges [host_step] of compute to this
     CPU: the per-message host work (matching, combining, re-sending) a
     host-driven tree cannot avoid. The charge serializes behind whatever
     else the host is computing, the degradation the NIC-offload engine
     removes. Unset, hops cost no host CPU. *)
  host_cpu : Sim_engine.Cpu.t option;
}

(* Collective steps are short (reduction fragments, barrier tokens), so
   the per-rank eager pool is deliberately small: with the Pool defaults
   (4 x 128 KiB slabs, EQ depth 4096) creating a pool backs a 128 KiB
   slab per rank, which would dominate world setup in the 1024-node
   scaling sweeps. Callers moving large bcast/alltoall payloads can
   raise [slab_size] (one slab bounds a single message). *)
let create ni ~ranks ~rank ?(portal_index = 6) ?(slab_size = 16_384)
    ?(slab_count = 2) ?(eq_capacity = 1024) ?host_cpu () =
  if rank < 0 || rank >= Array.length ranks then
    invalid_arg "Collectives.create: rank out of range";
  {
    pool = Pool.create ni ~portal_index ~slab_size ~slab_count ~eq_capacity ();
    ranks;
    my_rank = rank;
    seq = 0;
    host_cpu;
  }

let size t = Array.length t.ranks

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let host_step = Sim_engine.Time_ns.ns 2_000

let charge t =
  match t.host_cpu with
  | None -> ()
  | Some cpu -> Sim_engine.Cpu.compute cpu host_step

let send t ~seq ~round ~dst payload =
  charge t;
  Pool.send t.pool ~dst:t.ranks.(dst)
    ~bits:(Plan.bits ~seq ~round ~src:t.my_rank)
    payload

let recv t ~seq ~round ~src =
  let data = Pool.recv t.pool ~bits:(Plan.bits ~seq ~round ~src) in
  charge t;
  data

let alive t r =
  Simnet.Fabric.is_node_up
    (P.Ni.transport (Pool.ni t.pool)).Simnet.Transport.fabric
    t.ranks.(r).Simnet.Proc_id.nid

let barrier ?(tolerant = false) t =
  let n = size t in
  if n > 1 then begin
    let seq = next_seq t and rank = t.my_rank in
    for round = 0 to Plan.rounds n - 1 do
      (* Tolerant mode (shutdown best effort, the Mpi.barrier contract):
         skip exchanges with crash-stopped ranks instead of blocking on
         tokens that can never arrive. *)
      let dst = Plan.dissemination_dst ~n ~rank ~round
      and src = Plan.dissemination_src ~n ~rank ~round in
      if (not tolerant) || alive t dst then send t ~seq ~round ~dst Bytes.empty;
      if (not tolerant) || alive t src then ignore (recv t ~seq ~round ~src)
    done
  end

let bcast t ~root payload =
  let n = size t in
  if root < 0 || root >= n then invalid_arg "Collectives.bcast: bad root";
  let seq = next_seq t and rank = t.my_rank in
  let data =
    let parent = Plan.bcast_parent ~n ~root ~rank in
    if parent < 0 then payload
    else recv t ~seq ~round:(Plan.bcast_round ~n ~root ~rank) ~src:parent
  in
  for round = 0 to Plan.rounds n - 1 do
    let child = Plan.bcast_child ~n ~root ~rank ~round in
    if child >= 0 then send t ~seq ~round ~dst:child data
  done;
  data

let reduce t ~root ~op payload =
  let n = size t in
  if root < 0 || root >= n then invalid_arg "Collectives.reduce: bad root";
  let seq = next_seq t and rank = t.my_rank in
  let acc = Bytes.copy payload in
  for round = 0 to Plan.rounds n - 1 do
    let child = Plan.reduce_child ~n ~root ~rank ~round in
    if child >= 0 then op acc (recv t ~seq ~round ~src:child)
  done;
  let parent = Plan.reduce_parent ~n ~root ~rank in
  if parent < 0 then Some acc
  else begin
    send t ~seq ~round:(Plan.reduce_round ~n ~root ~rank) ~dst:parent acc;
    None
  end

let allreduce t ~op payload =
  match reduce t ~root:0 ~op payload with
  | Some acc -> bcast t ~root:0 acc
  | None -> bcast t ~root:0 Bytes.empty

let gather t ~root payload =
  let n = size t in
  if root < 0 || root >= n then invalid_arg "Collectives.gather: bad root";
  let seq = next_seq t in
  if t.my_rank = root then begin
    let out = Array.make n Bytes.empty in
    out.(root) <- payload;
    (* Claim contributions in whatever order they arrive; recv is keyed
       by source so the indexing is exact. *)
    for src = 0 to n - 1 do
      if src <> root then out.(src) <- recv t ~seq ~round:0 ~src
    done;
    Some out
  end
  else begin
    send t ~seq ~round:0 ~dst:root payload;
    None
  end

let scatter t ~root pieces =
  let n = size t in
  if root < 0 || root >= n then invalid_arg "Collectives.scatter: bad root";
  let seq = next_seq t in
  if t.my_rank = root then begin
    match pieces with
    | None -> invalid_arg "Collectives.scatter: root must supply pieces"
    | Some pieces ->
      if Array.length pieces <> n then
        invalid_arg "Collectives.scatter: need one piece per rank";
      for dst = 0 to n - 1 do
        if dst <> root then send t ~seq ~round:0 ~dst pieces.(dst)
      done;
      pieces.(root)
  end
  else recv t ~seq ~round:0 ~src:root

(* Ring allgather: in step s, pass along the chunk received in step s-1;
   after n-1 steps everyone holds every chunk. *)
let allgather t payload =
  let n = size t in
  let seq = next_seq t in
  let out = Array.make n Bytes.empty in
  out.(t.my_rank) <- payload;
  let right = (t.my_rank + 1) mod n and left = (t.my_rank - 1 + n) mod n in
  for step = 1 to n - 1 do
    let outgoing = (t.my_rank - step + 1 + n) mod n in
    let incoming = (t.my_rank - step + n) mod n in
    send t ~seq ~round:step ~dst:right out.(outgoing);
    out.(incoming) <- recv t ~seq ~round:step ~src:left
  done;
  out

let alltoall t input =
  let n = size t in
  if Array.length input <> n then
    invalid_arg "Collectives.alltoall: need one buffer per rank";
  let seq = next_seq t in
  for dst = 0 to n - 1 do
    if dst <> t.my_rank then send t ~seq ~round:0 ~dst input.(dst)
  done;
  let out = Array.make n Bytes.empty in
  out.(t.my_rank) <- input.(t.my_rank);
  for src = 0 to n - 1 do
    if src <> t.my_rank then out.(src) <- recv t ~seq ~round:0 ~src
  done;
  out

(* --- typed helpers ----------------------------------------------------- *)

let float_at b i = Int64.float_of_bits (Bytes.get_int64_le b (i * 8))
let set_float b i v = Bytes.set_int64_le b (i * 8) (Int64.bits_of_float v)

let map2_floats f acc contribution =
  let n = min (Bytes.length acc) (Bytes.length contribution) / 8 in
  for i = 0 to n - 1 do
    set_float acc i (f (float_at acc i) (float_at contribution i))
  done

let sum_floats acc contribution = map2_floats ( +. ) acc contribution
let max_floats acc contribution = map2_floats Float.max acc contribution

let bytes_of_floats a =
  let b = Bytes.create (Array.length a * 8) in
  Array.iteri (fun i v -> set_float b i v) a;
  b

let floats_of_bytes b = Array.init (Bytes.length b / 8) (fun i -> float_at b i)

let allreduce_float_sum t values =
  floats_of_bytes (allreduce t ~op:sum_floats (bytes_of_floats values))

(* --- implementation selection ------------------------------------------ *)

module Nic = Nic_offload

type impl = Host | Nic_offload

let impl_name = function Host -> "host" | Nic_offload -> "nic"

let impl_of_string = function
  | "host" -> Some Host
  | "nic" | "nic_offload" | "nic-offload" -> Some Nic_offload
  | _ -> None

type any = Host_engine of t | Nic_engine of Nic.t

let create_impl impl ni ~ranks ~rank ?host_cpu () =
  match impl with
  | Host -> Host_engine (create ni ~ranks ~rank ?host_cpu ())
  | Nic_offload -> Nic_engine (Nic.create ni ~ranks ~rank ())

let any_barrier ?tolerant = function
  | Host_engine t -> barrier ?tolerant t
  | Nic_engine t -> Nic.barrier ?tolerant t

let any_bcast any ~root payload =
  match any with
  | Host_engine t -> bcast t ~root payload
  | Nic_engine t -> Nic.bcast t ~root payload

let any_reduce any ~root ~op payload =
  match any with
  | Host_engine t -> reduce t ~root ~op payload
  | Nic_engine t -> Nic.reduce t ~root ~op payload

let any_allreduce any ~op payload =
  match any with
  | Host_engine t -> allreduce t ~op payload
  | Nic_engine t -> Nic.allreduce t ~op payload
