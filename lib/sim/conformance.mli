open Tm_history

(** Interface-conformance checking for TM implementations.

    The zoo's implementations satisfy most of these obligations by
    construction ({!Tm_impl.Tm_intf.Make} owns their mailboxes and
    empties one exactly when its TM answers), but a TM written by a
    downstream user — on [Make] (see [examples/custom_tm.ml]) or directly
    against {!Tm_impl.Tm_intf.S} — should be checked:

    - a poll with no pending invocation returns [None];
    - every response matches the kind of the pending invocation
      ([Σ∞k]-membership: a read is answered by a value or [A], a write by
      [ok] or [A], [tryC] by [C] or [A]);
    - [pending] agrees with the invoke/poll protocol;
    - the recorded history is well-formed;
    - responsive TMs answer within the patience bound.

    This checks {e interface} conformance only — use {!Tm_safety} for
    opacity and the adversary/matrix machinery for liveness. *)

type violation = {
  at_step : int;
  message : string;
  history_so_far : History.t;
}

val check :
  ?steps:int ->
  ?seed:int ->
  ?patience:int option ->
  nprocs:int ->
  ntvars:int ->
  Tm_impl.Registry.entry ->
  (History.t, violation) result
(** Random-drives the TM for [steps] (default 2000) micro-steps.
    [patience] (default [Some 1000]) bounds consecutive unanswered polls of
    one invocation; pass [None] for blocking TMs. *)
