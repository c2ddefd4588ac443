(** Deterministic open-loop arrival schedules.

    An arrival clock assigns every request a scheduled arrival time on
    the virtual nanosecond axis as a pure function of
    [(seed, rate, global index)] — independent of domain count, wall
    clock, and dispatch order.  Canonical artifacts (loadcurve
    documents, serve config echoes) may therefore mention arrivals and
    stay byte-deterministic; only the *pacing* that waits for the wall
    clock to catch up with the schedule is measurement. *)

type kind = Constant | Poisson

val kind_name : kind -> string
val kind_of_string : string -> kind option

type t

val make : kind:kind -> rate:float -> seed:int -> t
(** [rate] in requests per second of virtual time.
    @raise Invalid_argument if [rate] is not positive. *)

val kind : t -> kind
val rate : t -> float

val period_ns : t -> int
(** [round (1e9 / rate)], at least 1: the constant-kind gap and the
    Poisson mean inter-arrival. *)

type cursor
(** A prefix-sum walk over the gaps: arrival [i] is at
    [gap 0 + ... + gap i]. *)

val cursor : t -> cursor

val next : cursor -> int
(** The next scheduled arrival time (ns since the run epoch), advancing
    the cursor. *)

val skip : cursor -> int -> unit
(** Advance the cursor past [n] arrivals without returning them — how a
    domain walks to its next strided global index. *)

val schedule : t -> n:int -> int array
(** The first [n] arrival times; [schedule t ~n = Array.init n] over a
    fresh cursor's {!next}. *)
