(** A deterministic splittable PRNG (splitmix64).

    All simulation randomness flows through explicit generator values so
    every experiment is reproducible from its seed.

    The state is one unboxed 64-bit word, updated in place: a generator
    is a 3-word block, and every draw except {!next} allocates nothing
    (no [int64] is boxed on the way to an [int], a [bool] or {!bits}).

    {!bits} and {!int} are marked [[@inline]]: where the build inlines
    across modules, a draw with a literal bound such as [int g 100]
    compiles to a multiply and shift instead of a hardware divide, with
    the same result.  Dune's dev profile compiles with [-opaque], which
    turns cross-module inlining off, so there the attribute changes
    nothing; the release profile inlines. *)

type t

val create : int -> t

val reseed : t -> int -> unit
(** [reseed g seed] puts [g] in the state [create seed] starts in, in
    place and without allocating: the draws that follow are [create
    seed]'s. *)

val copy : t -> t

val next : t -> int64
(** The next raw 64-bit output (boxed: the one draw that allocates). *)

val bits : t -> int -> int
(** [bits g n] is the top [n] bits of the next raw output, [1 <= n <= 62]:
    uniform in [\[0, 2^n)], the draw {!next} would make, without the
    box. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  [bound > 0]. *)

val bool : t -> bool

val split : t -> t
(** An independent generator derived from (and advancing) [g]. *)
