(** Finite histories of a TM implementation (Section 2.2 of the paper).

    A history is a finite sequence of events over the alphabet
    [Inv ∪ Res].  A history is {e well-formed} when, for every process
    [pk], the projection [H|pk] is a word of [Σ∞k]: invocations and
    responses of [pk] strictly alternate, starting with an invocation, and
    every response matches the kind of the pending invocation (a read
    returns a value or [A]; a write returns [ok] or [A]; [tryC] returns
    [C] or [A]).

    Values of this type are immutable; [append] is O(1). *)

type t

val empty : t

val of_events : Event.t list -> t
(** [of_events es] is the history whose event sequence is [es].  No
    well-formedness check is performed; see {!well_formed}. *)

val of_rev_events : Event.t list -> t
(** [of_rev_events es] is [of_events (List.rev es)], without copying
    [es]: a recorder that conses each new event on the front builds its
    history once, at the end. *)

val events : t -> Event.t list
(** The event sequence, in order.  A fresh list: O(n) time and words. *)

val rev_events : t -> Event.t list
(** The event sequence, newest first, in O(1).  The list is the
    history's own spine, shared rather than copied: [rev_events (append h
    e)] is [e :: rev_events h] with its tail physically equal to
    [rev_events h].  So [h] extends [h'] whenever [rev_events h'] is
    physically a tail of [rev_events h]. *)

val iter : (Event.t -> unit) -> t -> unit
(** [iter f h] applies [f] to the events of [h] in order, without
    copying the event list and without recursion deeper than 16 frames:
    its scratch space is one word per 16 events. *)

val length : t -> int

val append : t -> Event.t -> t
(** [append h e] is [h] extended with a last event [e]. *)

val concat : t -> Event.t list -> t
(** [concat h es] appends all events of [es] to [h], in order. *)

val project : t -> Event.proc -> Event.t list
(** [project h p] is the projection [H|p]: the longest subsequence of [h]
    consisting of events of process [p]. *)

val procs : t -> Event.proc list
(** Processes having at least one event in the history, in ascending
    order. *)

val tvars : t -> Event.tvar list
(** T-variables accessed by at least one invocation, ascending. *)

val well_formed : t -> (unit, string) result
(** [well_formed h] is [Ok ()] iff every projection [H|pk] lies in [Σ∞k];
    otherwise [Error msg] describes the first offending event. *)

val is_well_formed : t -> bool

val equivalent : t -> t -> bool
(** [equivalent h h'] holds iff [H|pk = H'|pk] for every process [pk]
    (the paper's history equivalence). *)

val complete : t -> t
(** [complete h] is the completion [com(H)]: every transaction that is
    neither committed nor aborted is aborted by appending events at the end
    of the history.  If a process has a pending invocation, a single abort
    response is appended for it; if its last transaction ended with a
    (non-[C]/[A]) response, a [tryC] invocation immediately answered by [A]
    is appended, keeping the result well-formed. *)

val is_complete : t -> bool
(** [is_complete h] holds iff [complete h] = [h] (up to event equality). *)

val commit_count : t -> Event.proc -> int
(** Number of commit events [C_k] of the given process. *)

val abort_count : t -> Event.proc -> int
val try_commit_count : t -> Event.proc -> int
val event_count : t -> Event.proc -> int

val equal : t -> t -> bool
(** Event-by-event equality. *)

val pp : Format.formatter -> t -> unit
(** One event per [;]-separated item, in the paper's linear notation. *)

(** {2 Builders}

    Convenience constructors for writing down histories in the style of the
    paper's figures.  Each returns the event list of one completed step. *)

val read : Event.proc -> Event.tvar -> Event.value -> Event.t list
(** [read p x v] is [x.read_p · v_p]: a read of [x] returning [v]. *)

val read_aborted : Event.proc -> Event.tvar -> Event.t list
(** A read invocation answered by [A_p]. *)

val write : Event.proc -> Event.tvar -> Event.value -> Event.t list
(** [write p x v] is [x.write_p(v) · ok_p]. *)

val write_aborted : Event.proc -> Event.tvar -> Event.value -> Event.t list

val commit : Event.proc -> Event.t list
(** [commit p] is [tryC_p · C_p]. *)

val abort : Event.proc -> Event.t list
(** [abort p] is [tryC_p · A_p]. *)

val steps : Event.t list list -> t
(** [steps xs] is the history made of the concatenation of the given
    steps. *)
