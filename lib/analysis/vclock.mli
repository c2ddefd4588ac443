(** Vector clocks over integer-identified threads (domains, tids).

    The race checker tracks one clock per thread lane of a trace plus one
    "last release" clock per lock; a happens-before edge is created from a
    lock release to every later acquisition of the same lock.  Two events
    are {e concurrent} when neither clock is below the other — a pair of
    concurrent conflicting accesses is a race.

    Clocks are immutable sparse maps from thread id to event count;
    threads absent from the map are at 0. *)

type t

val zero : t

val get : t -> int -> int
(** Component for a thread (0 if absent). *)

val tick : t -> int -> t
(** [tick c tid] increments [tid]'s component. *)

val join : t -> t -> t
(** Pointwise maximum. *)

val leq : t -> t -> bool
(** [leq a b] holds iff [a] ≤ [b] pointwise: everything [a] has seen,
    [b] has seen too ([a] happens-before-or-equals [b]). *)

val concurrent : t -> t -> bool
(** Neither [leq a b] nor [leq b a]. *)

val equal : t -> t -> bool
