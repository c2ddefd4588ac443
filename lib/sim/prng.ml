(* The splitmix64 state lives unboxed in 8 bytes, read and written in
   place.  Every draw inlines [advance] into a function returning a
   native int, so no [int64] is boxed; only [next], which returns the raw
   [int64], boxes its result. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_ne g 0 s;
  g

let[@inline] seed_state seed = mix (Int64.of_int ((seed * 2) + 1))
let create seed = of_state (seed_state seed)
let reseed g seed = Bytes.set_int64_ne g 0 (seed_state seed)
let copy = Bytes.copy

let[@inline] advance g =
  let s = Int64.add (Bytes.get_int64_ne g 0) golden_gamma in
  Bytes.set_int64_ne g 0 s;
  mix s

let next g = advance g
let[@inline] bits g n =
  Int64.to_int (Int64.shift_right_logical (advance g) (64 - n))

let[@inline] int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit native int. *)
  bits g 62 mod bound

let bool g = Int64.to_int (advance g) land 1 = 1

let split g = of_state (mix (advance g))
