module Counter = struct
  type t = { name : string; mutable value : int }

  let create ?(name = "") () = { name; value = 0 }
  let incr t = t.value <- t.value + 1
  let add t n = t.value <- t.value + n
  let value t = t.value
  let reset t = t.value <- 0
  let name t = t.name
end

module Summary = struct
  type t = {
    name : string;
    mutable count : int;
    mutable total : float;
    mutable sum_sq : float;
    mutable min : float;
    mutable max : float;
  }

  let create ?(name = "") () =
    { name; count = 0; total = 0.; sum_sq = 0.; min = infinity; max = neg_infinity }

  let observe t x =
    t.count <- t.count + 1;
    t.total <- t.total +. x;
    t.sum_sq <- t.sum_sq +. (x *. x);
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.count
  let mean t = if t.count = 0 then 0. else t.total /. float_of_int t.count
  let min t = if t.count = 0 then 0. else t.min
  let max t = if t.count = 0 then 0. else t.max

  let stddev t =
    if t.count < 2 then 0.
    else
      let n = float_of_int t.count in
      let m = t.total /. n in
      let var = (t.sum_sq /. n) -. (m *. m) in
      if var < 0. then 0. else sqrt var

  let total t = t.total

  let reset t =
    t.count <- 0;
    t.total <- 0.;
    t.sum_sq <- 0.;
    t.min <- infinity;
    t.max <- neg_infinity

  let pp ppf t =
    Format.fprintf ppf "%s: n=%d mean=%.3f min=%.3f max=%.3f sd=%.3f" t.name
      t.count (mean t) (min t) (max t) (stddev t)
end
