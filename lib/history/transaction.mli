(** Transactions of a history (Section 2.2 of the paper).

    A transaction of process [pk] in history [H] is a maximal subsequence of
    [H|pk] that contains no commit or abort event except possibly as its last
    event.  A transaction is {e committed} ({e aborted}) if its last event is
    a commit (abort) event, and {e live} otherwise.

    Each extracted transaction carries the global positions of its first and
    last events in [H], from which the real-time order [<H] is derived:
    [T1 <H T2] iff [T1] is committed or aborted and the last event of [T1]
    occurs before the first event of [T2].  Two transactions neither of which
    precedes the other are {e concurrent}. *)

type status = Committed | Aborted | Live

type op =
  | O_read of Event.tvar * Event.value
      (** a completed read: [x.read · v] *)
  | O_write of Event.tvar * Event.value
      (** a completed write: [x.write(v) · ok] *)

type t = {
  proc : Event.proc;
  seq : int;  (** 0-based index among this process's transactions *)
  first_pos : int;  (** global index in the history of the first event *)
  last_pos : int;  (** global index in the history of the last event *)
  events : Event.t list;
  ops : op list;  (** completed reads and writes, in order *)
  status : status;
  attempted_commit : bool;  (** the transaction invoked [tryC] *)
}

val of_history : History.t -> t list
(** All transactions of the history, ordered by [first_pos].  Assumes the
    history is well-formed. *)

val of_process : History.t -> Event.proc -> t list
(** Transactions of one process, in program order. *)

val precedes : t -> t -> bool
(** The real-time order [<H]. *)

val concurrent : t -> t -> bool

val is_committed : t -> bool
val is_aborted : t -> bool

val commit_pending : t -> bool
(** [commit_pending t] holds iff [t] is live and its last event is a
    pending [tryC] invocation: the process asked to commit and the history
    ends before the response.  Such a transaction's fate is ambiguous — the
    TM may already have made its writes take effect (e.g. a helped commit,
    or a crash after write-back) — so safety checkers must consider both
    completions. *)

val completed_as : status -> t -> t
(** [completed_as status t] is [t] with its status forced to [status] and
    its completion placed at the end of the history ([last_pos] becomes
    [max_int], so it real-time-precedes nothing), mirroring how [com(H)]
    appends completion events.  Meaningful for live transactions. *)

val reads : t -> (Event.tvar * Event.value) list
val writes : t -> (Event.tvar * Event.value) list

val write_set : t -> Event.tvar list
(** T-variables written by completed writes, deduplicated, ascending. *)

val last_write : t -> Event.tvar -> Event.value option
(** Value of the transaction's last completed write to the given t-variable,
    if any. *)

val label : t -> string
(** A short label such as ["T1.0"] (process 1, first transaction). *)

val pp : Format.formatter -> t -> unit
val pp_status : Format.formatter -> status -> unit
