(** Ultimately periodic infinite histories.

    The paper's liveness definitions quantify over {e infinite} histories.
    Every infinite history depicted in the paper (Figures 5, 6, 7, 14, and
    the adversary outcomes of Figures 9, 10, 12, 13) is ultimately periodic,
    i.e. of the form [stem · cycle^ω] for finite event sequences [stem] and
    [cycle].  Representing them as such "lassos" makes all liveness verdicts
    exactly decidable: a process has infinitely many events of some kind iff
    the cycle contains one.

    A lasso is well-formed when every finite unrolling [stem · cycle^n] is a
    well-formed history; because per-process alternation state is a function
    of the prefix, it suffices that [stem · cycle · cycle] is well-formed and
    that the pending-invocation state repeats after each cycle. *)

type t = private { stem : Event.t list; cycle : Event.t list }

val v : stem:Event.t list -> cycle:Event.t list -> t
(** @raise Invalid_argument if [cycle] is empty or the lasso is not
    well-formed. *)

val check : stem:Event.t list -> cycle:Event.t list -> (t, string) result

val unroll : t -> int -> History.t
(** [unroll l n] is the finite history [stem · cycle^n]. *)

val rotate : t -> t
(** [rotate l] denotes the same infinite history with the first cycle event
    moved into the stem (so [stem'] = [stem @ [e]] and [cycle'] is the cycle
    rotated by one).  Liveness verdicts are invariant under rotation. *)

val unroll_cycle_into_stem : t -> t
(** The same infinite history with one full cycle appended to the stem. *)

val procs : t -> Event.proc list
(** Processes with at least one event in [stem · cycle]. *)

val projection_infinite : t -> Event.proc -> bool
(** [projection_infinite l p] holds iff [H|p] is infinite, i.e. the cycle
    contains an event of [p]. *)

val infinitely_many : t -> (Event.t -> bool) -> Event.proc -> bool
(** [infinitely_many l pred p] holds iff infinitely many events of process
    [p] satisfy [pred], i.e. some cycle event of [p] does. *)

val finite_count : t -> (Event.t -> bool) -> Event.proc -> int
(** Number of matching stem events of [p] (meaningful when
    [infinitely_many] is false). *)
