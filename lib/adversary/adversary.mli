open Tm_history

(** The impossibility-proof adversary (Section 4, Algorithms 1 and 2; and
    the n-process generalization behind Lemma 1).

    Each history of a TM is a game between the environment and the
    implementation; the environment (processes plus scheduler) chooses
    invocations, the implementation chooses responses.  The proof of
    Theorem 1 exhibits a winning environment strategy: against {e any} TM
    ensuring opacity, the strategy produces an infinite history violating
    local progress — process p1 never commits.  This module makes that
    strategy executable so it can be run against the whole zoo.

    - {!Algorithm_1} is the parasitic-free-case strategy: p1 reads [x] and
      is then suspended while p2 repeatedly reads [x], writes [v+1] and
      commits; afterwards p1 attempts its own write and commit and — if
      the TM is opaque — must be aborted (else the history would end in
      Figure 8's non-opaque suffix).
    - {!Algorithm_2} is the crash-free-case strategy: the same conflict,
      but p1 re-reads in every round so that it never stops taking steps
      (it is either aborted infinitely often, or becomes parasitic — the
      Figure 12/13 dichotomy).

    A round of either algorithm is one successful commit by p2 followed by
    p1's (doomed) attempt.  If the TM ever lets p1 commit, the resulting
    finite history is reported as [terminated] — the test suite then
    checks it is non-opaque, which is exactly the paper's argument.
    Blocking TMs (the global lock) respond to the adversary by withholding
    responses; this is detected via a patience bound and reported as
    [blocked] — such TMs escape the theorem by failing responsiveness, not
    by ensuring local progress. *)

type algorithm = Algorithm_1 | Algorithm_2

type result = {
  history : History.t;
  rounds_completed : int;
  victim_commits : int;  (** commits by p1 — 0 for any opaque TM *)
  victim_aborts : int;
  winner_commits : int;  (** commits by p2 *)
  blocked : bool;
      (** some operation exceeded the patience bound without a response *)
  winner_starved : bool;
      (** p2 was answered but never allowed to commit: the adversary wins
          with the Figure 9 (Algorithm 1) or Figure 12 (Algorithm 2)
          suffix — produced by over-conservative TMs like [quiescent] *)
  terminated : bool;  (** p1 committed and the strategy stopped *)
}

val run :
  ?patience:int ->
  ?rounds:int ->
  Tm_impl.Registry.entry ->
  algorithm ->
  result
(** Defaults: patience 200 polls, 50 rounds. *)

(** How a game ended: Theorem 1's outcome, decided once for every
    caller. *)
type verdict =
  | Blocked  (** a response was withheld: the escape of a blocking TM *)
  | Winner_starved
      (** p2 never committed either: the Figure 9 (Algorithm 1) or
          Figure 12 (Algorithm 2) suffix of a TM without global progress *)
  | Victim_committed
      (** p1 committed: the history must end in Figure 8's non-opaque
          suffix *)
  | Victim_starves
      (** p1 never committed while p2 did: local progress violated *)

val verdict : result -> verdict
(** [blocked] first, then [winner_starved], then [terminated]. *)

(** The n-process generalization (Lemma 1): one winner process commits
    round after round; the other [n-1] victims read before the winner's
    commit and attempt their own conflicting write afterwards, so at least
    two processes are correct but at most one makes progress. *)
module General : sig
  type nresult = {
    history : History.t;
    rounds_completed : int;
    commits : int array;  (** per process, 1..n; only the winner moves *)
    aborts : int array;
    blocked : bool;
    any_victim_committed : bool;
  }

  val run :
    ?patience:int -> ?rounds:int -> nprocs:int -> Tm_impl.Registry.entry ->
    nresult
end
