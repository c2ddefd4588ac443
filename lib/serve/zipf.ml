module Prng = Tm_sim.Prng

type t = { z_s : float; z_cum : float array; z_guide : int array }

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
  let rec pow2 m = if m < n then pow2 (2 * m) else m in
  let m = pow2 1 and r = ref 0 in
  let guide =
    Array.init m (fun i ->
        while !r < n - 1 && cum.(!r) <= float_of_int i /. float_of_int m do
          incr r
        done;
        !r)
  in
  { z_s = s; z_cum = cum; z_guide = guide }

let n t = Array.length t.z_cum
let s t = t.z_s

let cumulative_mass t r =
  if r < 0 then 0.0
  else if r >= Array.length t.z_cum then 1.0
  else t.z_cum.(r)

let mass t r = cumulative_mass t r -. cumulative_mass t (r - 1)

(* First rank whose cumulative mass exceeds [u].  Ranks before the entry of
   bucket [floor (u * m)] have mass <= u; the last mass is 1.0 > u. *)
let[@inline] sample_u t u =
  let cum = t.z_cum and guide = t.z_guide in
  let r = ref guide.(int_of_float (u *. float_of_int (Array.length guide))) in
  while cum.(!r) <= u do
    incr r
  done;
  !r

(* 53 uniform bits, the double-precision standard construction, drawn
   as a native int.  Both steps inline into [sample], so the variate
   stays in a register and a draw allocates nothing. *)
let[@inline] uniform01 g = float_of_int (Prng.bits g 53) *. 0x1p-53
let sample t g = sample_u t (uniform01 g)
