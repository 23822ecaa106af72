(* Exact order statistics over raw samples. [Nv_util.Histogram]'s
   buckets are up to 19% wide, too coarse to resolve a 10% regression
   bound, so every end-to-end latency goes through here instead. *)

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. [nan] on no samples. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let median values = nearest_rank (sorted values) 50.0
