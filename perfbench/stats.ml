(* Medians over float samples, and quantiles read from the repository's
   hires histograms with linear interpolation inside the bucket: bucket
   bounds step by 6-12%, so reading a bucket's upper bound would
   quantise a median. *)

module I = Tm_telemetry.Instrument

(* The median, interpolating between the two middle values. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let interpolated ~upper (s : I.hsnap) q =
  if s.I.count = 0 then 0.0
  else
    let rank = q *. float_of_int s.I.count in
    let n = Array.length s.I.buckets in
    let rec go b cum =
      let c = s.I.buckets.(b) in
      if b = n - 1 || (c > 0 && float_of_int (cum + c) >= rank) then
        let lo = if b = 0 then 0 else upper (b - 1) + 1 in
        let hi = min (upper b) s.I.max_sample in
        let hi = max hi lo in
        let frac =
          if c = 0 then 1.0 else (rank -. float_of_int cum) /. float_of_int c
        in
        float_of_int lo +. (Float.max 0.0 frac *. float_of_int (hi - lo + 1))
      else go (b + 1) (cum + c)
    in
    go 0 0

(* Quantile of a hires snapshot (see [Instrument.hires]). *)
let hires_q s q = interpolated ~upper:I.hires_bucket_upper s q
