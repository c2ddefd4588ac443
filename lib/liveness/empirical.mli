open Tm_history

(** Bridging finite runs and infinite-history verdicts.

    Liveness properties are defined on infinite histories; simulations
    produce finite ones.  Two bridges:

    - {!find_lasso} detects an {e exactly periodic suffix} of a finite
      history and returns the corresponding lasso, so the exact deciders of
      {!Property} apply.  This is a sound extrapolation whenever the
      system that produced the run (TM + programs + scheduler) is
      deterministic with finite state — e.g. any zoo TM under the
      round-robin scheduler — because a repeated (state, schedule-phase)
      pair provably loops forever.  For randomized schedules it is a
      heuristic and usually finds nothing.

    - {!classify_window} gives per-process bounded-window verdicts
      ("committed in the last [window] events?"), the honest empirical
      reading of pending/parasitic/crashed on arbitrary finite runs. *)

val find_lasso : History.t -> Lasso.t option
(** The smallest period [q <= 200] such that the history's suffix
    repeats with period [q] at least 3 times and the pending-invocation state repeats across the
    cycle; the lasso's stem is the non-periodic prefix.  [None] when no
    such suffix exists. *)

type window_summary = {
  proc : Event.proc;
  events_total : int;
  events_in_window : int;
  commits_in_window : int;
  aborts_in_window : int;
  trycs_in_window : int;
  looks_pending : bool;  (** no commit in the window *)
  looks_crashed : bool;  (** has events overall, none in the window *)
  looks_parasitic : bool;
      (** active in the window with neither [tryC] nor aborts in it *)
  looks_progressing : bool;
}

val classify_window : window:int -> History.t -> window_summary list
(** One summary per process, ascending; the window is the last [window]
    events of the history.  One pass over the events, with per-process
    counters (a {!tally}) spanning the lowest to the highest process id. *)

(** {2 Window tallies}

    The counts behind {!classify_window}, taken one event at a time, so
    that a caller that never keeps the events (the simulator's run
    metrics) can read the window when the run ends.  A tally keeps each
    process's event count and, in a ring, a (process, kind) code for each
    of its newest [capacity] events; the heuristics that turn counts into
    a {!window_summary} live only here. *)

(** What the window counts of an event. *)
type kind =
  | Other
  | Commit  (** a [Committed] response *)
  | Abort  (** an [Aborted] response *)
  | Try_commit  (** a [tryC] invocation *)

type tally

val tally : lo:Event.proc -> hi:Event.proc -> capacity:int -> tally
(** Zeroed counters for processes [lo .. hi], keeping the codes of the
    newest [max 1 capacity] events. *)

val tally_kind : tally -> Event.proc -> kind -> unit
(** Counts the next event, of process [p] and kind [kind].  Allocates
    nothing.  @raise Invalid_argument if [p] is outside [lo .. hi]. *)

val tally_summaries : tally -> window:int -> window_summary list
(** One summary per counted process with at least one event, ascending,
    the window being the last [window] events counted — what
    {!classify_window} returns for the same events and window.
    @raise Invalid_argument if the window holds more events than the
    ring keeps. *)

val pp_window_summary : Format.formatter -> window_summary -> unit

(** {2 Counter samples}

    The multicore chaos watchdog cannot see a history — it samples
    monotone per-domain counters.  Two samples bracket an observation
    window and the deltas give the same empirical reading as
    {!classify_window}, expressed in the Figure-2 taxonomy. *)

type counters = {
  c_ops : int;  (** operations executed (any interception-point firing) *)
  c_trycs : int;  (** commit attempts that reached [tryC] *)
  c_commits : int;
  c_aborts : int;
}

val counters : ops:int -> trycs:int -> commits:int -> aborts:int -> counters

val classify_counters :
  first:counters -> last:counters -> Process_class.cls
(** Window verdict from two samples of monotone counters: no operations
    at all looks {e crashed}; operations, no [tryC]s and at most a
    negligible trickle of aborts (1/64 of the operations — restarts
    forced on an endless body by a peer descheduled mid-commit are
    noise, not work) looks {e parasitic}; activity without a commit
    looks {e starving}; otherwise the process is {e progressing}. *)
