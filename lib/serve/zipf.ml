module Prng = Tm_sim.Prng

type t = { z_s : float; z_cum : float array }

let create ?(s = 1.07) ~n () =
  if n < 1 then invalid_arg "Zipf.create: n < 1";
  if s < 0.0 then invalid_arg "Zipf.create: s < 0";
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) s);
    cum.(r) <- !acc
  done;
  let total = cum.(n - 1) in
  for r = 0 to n - 1 do
    cum.(r) <- cum.(r) /. total
  done;
  { z_s = s; z_cum = cum }

let n t = Array.length t.z_cum
let s t = t.z_s

let cumulative_mass t r =
  if r < 0 then 0.0
  else if r >= Array.length t.z_cum then 1.0
  else t.z_cum.(r)

let mass t r = cumulative_mass t r -. cumulative_mass t (r - 1)

(* First rank whose cumulative mass exceeds [u].  [u < 1.0] and the last
   entry is exactly 1.0, so the search always lands in range. *)
let[@inline] sample_u t u =
  let cum = t.z_cum in
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* 53 uniform bits, the double-precision standard construction, drawn
   as a native int.  Both steps inline into [sample], so the variate
   stays in a register and a draw allocates nothing. *)
let[@inline] uniform01 g = float_of_int (Prng.bits g 53) *. 0x1p-53
let sample t g = sample_u t (uniform01 g)
