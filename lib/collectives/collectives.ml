module Pool = Pool
module Coll_intf = Coll_intf
module P = Portals

type t = {
  pool : Pool.t;
  ranks : Simnet.Proc_id.t array;
  my_rank : int;
  mutable seq : int;
  (* When a host CPU is supplied, every protocol hop charges [host_step]
     of compute to it — the per-message host work (matching, combining,
     re-sending) a host-driven tree cannot avoid. The charge serializes
     behind whatever else the host is computing, which is exactly the
     degradation the NIC-offload engine exists to remove; leaving
     [host_cpu] unset keeps the engine's timing identical to before the
     knob existed. *)
  host_cpu : Sim_engine.Cpu.t option;
  host_step : Sim_engine.Time_ns.t;
  (* Nodes currently crash-stopped, maintained from the transport's
     crash/restart notifications — what [barrier ~tolerant] consults to
     skip exchanges with dead ranks. *)
  down : (Simnet.Proc_id.nid, unit) Hashtbl.t;
}

(* Collective steps are short (reduction fragments, barrier tokens), so
   the per-rank eager pool is deliberately small: with the Pool defaults
   (4 x 128 KiB slabs, EQ depth 4096) creating a pool backs a 128 KiB
   slab per rank, which would dominate world setup in the 1024-node
   scaling sweeps. Callers moving large bcast/alltoall payloads can
   raise [slab_size] (see {!Pool.largest_message}). *)
let create ni ~ranks ~rank ?(portal_index = 6) ?(slab_size = 16_384)
    ?(slab_count = 2) ?(eq_capacity = 1024) ?host_cpu
    ?(host_step = Sim_engine.Time_ns.ns 2_000) () =
  if rank < 0 || rank >= Array.length ranks then
    invalid_arg "Collectives.create: rank out of range";
  let down = Hashtbl.create 4 in
  let tp = P.Ni.transport ni in
  tp.Simnet.Transport.on_crash (fun nid -> Hashtbl.replace down nid ());
  tp.Simnet.Transport.on_restart (fun nid -> Hashtbl.remove down nid);
  {
    pool = Pool.create ni ~portal_index ~slab_size ~slab_count ~eq_capacity ();
    ranks;
    my_rank = rank;
    seq = 0;
    host_cpu;
    host_step;
    down;
  }

let rank t = t.my_rank
let size t = Array.length t.ranks

(* Message naming: sequence number (which collective call), round within
   the algorithm, and sending rank, in 40, 8 and 16 bits. Computed in
   unboxed integers and boxed once, with {!P.Match_bits.field}'s range
   check and message. *)
let fits ~width v =
  if v < 0 || v lsr width <> 0 then
    invalid_arg
      (Printf.sprintf "Match_bits.field: %d does not fit in %d bits" v width)

let bits ~seq ~round ~src =
  fits ~width:40 seq;
  fits ~width:8 round;
  fits ~width:16 src;
  P.Match_bits.of_int64
    (Int64.logor
       (Int64.shift_left (Int64.of_int seq) 24)
       (Int64.of_int ((round lsl 16) lor src)))

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let charge t =
  match t.host_cpu with
  | None -> ()
  | Some cpu -> Sim_engine.Cpu.compute cpu t.host_step

let send t ~seq ~round ~dst payload =
  charge t;
  Pool.send t.pool ~dst:t.ranks.(dst) ~bits:(bits ~seq ~round ~src:t.my_rank) payload

let recv t ~seq ~round ~src =
  let data = Pool.recv t.pool ~bits:(bits ~seq ~round ~src) in
  charge t;
  data

let alive t r = not (Hashtbl.mem t.down t.ranks.(r).Simnet.Proc_id.nid)

let barrier ?(tolerant = false) t =
  let n = size t in
  if n > 1 then begin
    let seq = next_seq t in
    let rec go round step =
      if step < n then begin
        (* Tolerant mode (shutdown best effort, the Mpi.barrier contract):
           skip exchanges with crash-stopped ranks instead of blocking on
           tokens that can never arrive. *)
        let dst = (t.my_rank + step) mod n
        and src = (t.my_rank - step + n) mod n in
        if (not tolerant) || alive t dst then
          send t ~seq ~round ~dst Bytes.empty;
        if (not tolerant) || alive t src then
          ignore (recv t ~seq ~round ~src);
        go (round + 1) (step * 2)
      end
    in
    go 0 1
  end

let log2_floor v =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let highest_bit v =
  if v = 0 then 0 else 1 lsl log2_floor v

(* Binomial broadcast: virtual rank v receives from v - 2^j (j = position
   of v's highest set bit) in round j, then feeds rounds k > j. *)
let bcast t ~root payload =
  let n = size t in
  if root < 0 || root >= n then invalid_arg "Collectives.bcast: bad root";
  let seq = next_seq t in
  let vr = (t.my_rank - root + n) mod n in
  let real v = (v + root) mod n in
  let data =
    if vr = 0 then payload
    else begin
      let top = highest_bit vr in
      recv t ~seq ~round:(log2_floor top) ~src:(real (vr - top))
    end
  in
  let first_round = if vr = 0 then 0 else log2_floor (highest_bit vr) + 1 in
  let rec fan k =
    let mask = 1 lsl k in
    if mask < n then begin
      if vr < mask && vr + mask < n then send t ~seq ~round:k ~dst:(real (vr + mask)) data;
      fan (k + 1)
    end
  in
  fan first_round;
  data

(* Binomial reduce: at the first set bit of the virtual rank, send the
   accumulated value toward the root; below it, absorb children. *)
let reduce t ~root ~op payload =
  let n = size t in
  if root < 0 || root >= n then invalid_arg "Collectives.reduce: bad root";
  let seq = next_seq t in
  let vr = (t.my_rank - root + n) mod n in
  let real v = (v + root) mod n in
  let acc = Bytes.copy payload in
  let rec go mask round =
    if mask < n then
      if vr land mask <> 0 then begin
        send t ~seq ~round ~dst:(real (vr - mask)) acc;
        false
      end
      else begin
        if vr + mask < n then begin
          let contribution = recv t ~seq ~round ~src:(real (vr + mask)) in
          op acc contribution
        end;
        go (mask * 2) (round + 1)
      end
    else true
  in
  if go 1 0 then Some acc else None

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

module Host_s : Coll_intf.S with type t = t = struct
  type nonrec t = t

  let rank = rank
  let size = size
  let barrier = barrier
  let bcast = bcast
  let reduce = reduce
  let allreduce = allreduce
end

module Nic_s : Coll_intf.S with type t = Nic_offload.t = struct
  type t = Nic_offload.t

  let rank = Nic_offload.rank
  let size = Nic_offload.size
  let barrier = Nic_offload.barrier
  let bcast = Nic_offload.bcast
  let reduce = Nic_offload.reduce
  let allreduce = Nic_offload.allreduce
end

type impl = Host | Nic_offload

let impl_name = function Host -> "host" | Nic_offload -> "nic"

let impl_of_string = function
  | "host" -> Some Host
  | "nic" | "nic_offload" | "nic-offload" -> Some Nic_offload
  | _ -> None

type any = Any : (module Coll_intf.S with type t = 'a) * 'a -> any

let create_impl impl ni ~ranks ~rank ?host_cpu () =
  match impl with
  | Host -> Any ((module Host_s), create ni ~ranks ~rank ?host_cpu ())
  | Nic_offload -> Any ((module Nic_s), Nic.create ni ~ranks ~rank ())

let any_rank (Any ((module M), t)) = M.rank t
let any_size (Any ((module M), t)) = M.size t
let any_barrier ?tolerant (Any ((module M), t)) = M.barrier ?tolerant t
let any_bcast (Any ((module M), t)) ~root payload = M.bcast t ~root payload

let any_reduce (Any ((module M), t)) ~root ~op payload =
  M.reduce t ~root ~op payload

let any_allreduce (Any ((module M), t)) ~op payload = M.allreduce t ~op payload
