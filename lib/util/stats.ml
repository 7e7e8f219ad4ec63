type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p95 : float;
  p99 : float;
}

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (acc /. float_of_int (n - 1))
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty";
  let mn = Array.fold_left min xs.(0) xs in
  let mx = Array.fold_left max xs.(0) xs in
  {
    n;
    mean = mean xs;
    stddev = stddev xs;
    min = mn;
    max = mx;
    median = percentile xs 50.0;
    p95 = percentile xs 95.0;
    p99 = percentile xs 99.0;
  }

let summarize_ints xs = summarize (Array.map float_of_int xs)

let mean_ci95 xs =
  let n = Array.length xs in
  let m = mean xs in
  if n < 2 then (m, 0.0)
  else (m, 1.96 *. stddev xs /. sqrt (float_of_int n))

let histogram ?(buckets = 10) xs =
  let n = Array.length xs in
  if n = 0 then []
  else begin
    let mn = Array.fold_left min xs.(0) xs in
    let mx = Array.fold_left max xs.(0) xs in
    let width = if mx > mn then (mx -. mn) /. float_of_int buckets else 1.0 in
    let counts = Array.make buckets 0 in
    let bucket_of x =
      let b = int_of_float ((x -. mn) /. width) in
      if b >= buckets then buckets - 1 else if b < 0 then 0 else b
    in
    Array.iter (fun x -> counts.(bucket_of x) <- counts.(bucket_of x) + 1) xs;
    List.init buckets (fun i ->
        let lo = mn +. (float_of_int i *. width) in
        (lo, lo +. width, counts.(i)))
  end
