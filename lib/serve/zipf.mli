(** A Zipfian rank distribution over [0 .. n-1] by cumulative-table
    inversion.

    Rank [r] has unnormalized mass [1 / (r+1)^s]; {!sample} draws a
    uniform variate [u] from a {!Tm_sim.Prng} generator and inverts the
    cumulative table by Chen and Asau's indexed search: a guide table
    of [m] buckets ([m] the least power of two [>= n]) gives, for
    bucket [floor (u * m)], the rank to scan up from.  A draw reads on
    average at most [1 + n / m <= 2] masses (a binary search reads
    [log2 n]) and returns exactly the binary search's rank, since [m]
    is a power of two and the bucket is exact.  It allocates nothing
    and is a pure function of the generator state — the backbone of
    the deterministic serve workload. *)

type t

val create : ?s:float -> n:int -> unit -> t
(** [create ~n ()] tabulates the distribution over [n] ranks with
    exponent [s] (default 1.07, the classic YCSB skew).
    @raise Invalid_argument if [n < 1] or [s < 0.0]. *)

val n : t -> int
val s : t -> float

val mass : t -> int -> float
(** Normalized probability of rank [r] (ranks are 0-based, heaviest
    first). *)

val cumulative_mass : t -> int -> float
(** Total probability of ranks [0 .. r] inclusive — the hot-set mass of
    the top [r+1] ranks. *)

val sample_u : t -> float -> int
(** Invert the cumulative table at a uniform variate [u] in [[0, 1)]:
    the first rank whose cumulative mass exceeds [u]. *)

val sample : t -> Tm_sim.Prng.t -> int
(** Draw a rank, advancing the generator by exactly one [next]. *)

val uniform01 : Tm_sim.Prng.t -> float
(** The uniform variate in [[0, 1)] that {!sample} inverts — exposed so
    tests can cross-check [sample g = sample_u (uniform01 g')]. *)
