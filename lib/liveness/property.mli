open Tm_history

(** TM-liveness properties (Section 3) as decidable predicates on lassos.

    A TM-liveness property is a set [L] of infinite histories with
    [L_local ⊆ L ⊆ H_TM]; a history {e ensures} [L] iff it belongs to it.
    On lasso-represented histories, membership in the three properties the
    paper studies is decidable:

    - {e local progress}: every correct process makes progress (or there is
      no correct process) — the TM analogue of wait-freedom, proved
      impossible to combine with opacity in fault-prone systems
      (Theorem 1);
    - {e global progress}: at least one correct process makes progress (or
      there is no correct process) — ensured together with opacity by the
      paper's [Fgp] automaton (Theorem 3);
    - {e solo progress}: a process that runs alone makes progress (or no
      process runs alone).

    {e Nonblocking} and {e biprogressing} (Definitions 4 and 5) are
    second-order: they classify property {e sets}, not single histories.
    For a single history, {!verdict} carries the respect-checks
    ([nonblocking_ok], [biprogressing_ok]): a history that fails the check cannot belong
    to any nonblocking (biprogressing) property, which is exactly how the
    paper uses Figures 6 and 14.  For first-class properties (predicates) we
    expose {!nonblocking_on} and {!biprogressing_on}, which verify the
    definition over a corpus of sample histories. *)

val local_progress : Lasso.t -> bool
val global_progress : Lasso.t -> bool
val solo_progress : Lasso.t -> bool

type t = { name : string; holds : Lasso.t -> bool }
(** A TM-liveness property as a first-class predicate. *)

val k_progress : int -> t
(** The paper's concluding remarks ask for the lattice between local and
    global progress; [k_progress k] is the natural family: at least
    [min k (number of correct processes)] correct processes make progress
    (vacuous without correct processes).  [k_progress 1] coincides with
    global progress; on histories with at most [n] processes,
    [k_progress n] coincides with local progress.  Every [k_progress k] is
    nonblocking, and for [k >= 2] it is biprogressing — hence, by
    Theorem 2, impossible to combine with opacity in a fault-prone
    system. *)

val priority_progress : priority:(Event.proc -> int) -> Lasso.t -> bool
(** The other future-work family from the paper's concluding remarks:
    progress for the processes of highest priority.  Holds iff every
    correct process whose priority is maximal among the correct processes
    makes progress.  With constant priorities this is local progress; with
    injective priorities it is a blocking property (only one process is
    ever entitled to progress). *)

val all : t list
(** [local-progress], [global-progress], [solo-progress],
    [2-progress], [3-progress]. *)

val stronger_on : t -> t -> Lasso.t list -> bool
(** [stronger_on l1 l2 corpus] checks [L1 ⊆ L2] on the given sample
    histories (property strength: smaller set = stronger property). *)

val nonblocking_on : t -> Lasso.t list -> bool
(** Definition 4 restricted to a corpus: every corpus history in the
    property with a process running alone has that process progressing. *)

val biprogressing_on : t -> Lasso.t list -> bool
(** Definition 5 restricted to a corpus. *)

type verdict = {
  local : bool;
  global : bool;
  solo : bool;
  nonblocking_ok : bool;
  biprogressing_ok : bool;
}

val verdict : Lasso.t -> verdict
val pp_verdict : Format.formatter -> verdict -> unit
