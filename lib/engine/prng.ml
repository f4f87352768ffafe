type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = Int64.of_int seed }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = bits64 t in
  { state = mix64 seed }

(* Stateless stream derivation: mix the index into the seed through two
   rounds of the output permutation. Unlike [split] this does not advance
   any generator, so shard k's stream is a pure function of (seed, k) —
   the same no matter how many shards exist or in what order they are
   created. Index 0 is remixed too: no derived stream may coincide with
   the sequential root stream [create ~seed]. *)
let derived_seed ~seed ~index =
  Int64.to_int (mix64 (Int64.add (Int64.of_int seed)
                         (Int64.mul (Int64.of_int (index + 1)) golden_gamma)))

let derive ~seed ~index = create ~seed:(derived_seed ~seed ~index)

let int t bound =
  assert (bound > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let rec go () =
    let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 1) in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then go () else v
  in
  go ()

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  (* 53 significant bits, scaled to [0,1). *)
  r /. 9007199254740992.0 *. bound


let exponential t ~mean =
  let u = float t 1.0 in
  -.mean *. log (1.0 -. u)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
