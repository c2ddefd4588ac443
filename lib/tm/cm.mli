open Tm_history

(** Contention managers.

    The paper (Section 2.2) treats the contention manager as an integral
    part of the TM: it may delay transactions or force aborts, and the
    impossibility results apply to the whole.  Our obstruction-free DSTM
    implementation consults one whenever a transaction conflicts with the
    owner of a t-variable.

    A decision is one of:
    - [Steal] — abort the victim and take the resource;
    - [Wait] — back off (the poll returns no response; the operation is
      retried at the next poll);
    - [Abort_self] — abort the requesting transaction.

    The classic policies behave differently in the face of faults: an
    aggressive manager converts parasitic owners into aborted (hence
    correct) processes, while polite/karma managers eventually steal from
    crashed owners but can let a determined parasite starve everyone —
    the experiments of EXPERIMENTS.md use exactly these contrasts. *)

type decision = Steal | Wait | Abort_self

type view = {
  proc : Event.proc;
  ops_done : int;  (** operations completed in the current transaction *)
  waits : int;  (** consecutive waits on the current conflict *)
  timestamp : int;  (** transaction start time (smaller = older) *)
}

type t = {
  cm_name : string;
  decide : attacker:view -> victim:view -> decision;
}

val aggressive : t
(** Always steal. *)

val polite : int -> t
(** Wait up to the given bound, then steal. *)

val karma : t
(** Steal iff the attacker's accumulated work (operations plus waits) is at
    least the victim's; otherwise wait. *)

val greedy : t
(** Older transaction wins: steal iff the attacker started earlier,
    otherwise abort self. *)

val all : t list
val by_name : string -> t option
