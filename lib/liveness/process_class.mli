open Tm_history

(** Process classification in infinite histories (Section 2.3, Figure 2).

    All predicates are exact decisions on lasso-represented infinite
    histories:

    - [pk] is {e pending} iff [H] has finitely many commit events [C_k];
    - [pk] {e crashes} iff [H|pk] is a finite non-empty sequence;
    - [pk] is {e parasitic} iff [H|pk] is infinite and contains finitely
      many [tryC_k] invocations and finitely many abort events [A_k];
    - [pk] is {e starving} iff it does not crash, is not parasitic, and is
      pending;
    - [pk] is {e correct} iff it is neither parasitic nor crashed, and
      {e faulty} otherwise;
    - a correct [pk] {e makes progress} iff it is not pending;
    - [pk] {e runs alone} iff it is correct and no other process is
      correct. *)

val is_pending : Lasso.t -> Event.proc -> bool
val crashes : Lasso.t -> Event.proc -> bool
val is_parasitic : Lasso.t -> Event.proc -> bool
val is_starving : Lasso.t -> Event.proc -> bool
val is_correct : Lasso.t -> Event.proc -> bool
val is_faulty : Lasso.t -> Event.proc -> bool

val makes_progress : Lasso.t -> Event.proc -> bool
(** [makes_progress l p] holds iff [p] is correct and not pending. *)

val runs_alone : Lasso.t -> Event.proc -> bool

val correct_processes : Lasso.t -> Event.proc list
val progressing_processes : Lasso.t -> Event.proc list

(** The taxonomy as a total, mutually exclusive classification: every
    process of a lasso is exactly one of crashed, parasitic, starving
    (correct but pending), or progressing (correct and committing
    infinitely often).  This is the paper's Figure-2 partition flattened
    into one value — the form the analysis layer's liveness lints compare
    against claimed verdicts. *)
type cls = Crashed | Parasitic | Starving | Progressing

val cls : Lasso.t -> Event.proc -> cls

val cls_label : cls -> string
(** ["crashed"], ["parasitic"], ["starving"], ["progressing"]. *)

val equal_cls : cls -> cls -> bool

type summary = {
  proc : Event.proc;
  pending : bool;
  crashed : bool;
  parasitic : bool;
  starving : bool;
  correct : bool;
  progresses : bool;
}

val classify : Lasso.t -> summary list
(** One summary per process appearing in the lasso, ascending. *)

val pp_table : Format.formatter -> summary list -> unit
