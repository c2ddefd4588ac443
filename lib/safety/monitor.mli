open Tm_history

(** An online opacity monitor: a linear-time witness constructor.

    The full checker ({!Opacity}) decides opacity exactly but searches over
    serializations — fine for figures and short runs, hopeless for a
    100 000-event simulation.  This monitor processes events one at a time
    and maintains, per live transaction, the set of {e snapshot points} at
    which its reads are simultaneously value-consistent with the committed
    store.  A transaction is accepted if:

    - it is read-only or aborted, and some snapshot point falls within its
      lifetime; or
    - it commits writes, and the commit instant itself is a valid snapshot
      point (every read still matches the committed store, own writes
      aside).

    Accepting every transaction yields a legal, real-time-preserving
    serialization (order transactions by their snapshot/commit points), so
    [`Accepted] {e implies opacity} — the monitor is sound.  It is not
    complete: an opaque history whose only witnesses reorder commits away
    from their real-time commit order is reported as [`No_witness], never
    as a violation.  Every single-version TM in the zoo commits in store
    order, so their histories are all accepted; the multiversion TM's
    read-only transactions are accepted at their (earlier) snapshot
    points. *)

type t

val create : unit -> t

val step : t -> Event.t -> unit
(** Feed the next event.  Process and t-variable ids index the monitor's
    tables, whose size follows the largest id seen, so they must lie in
    [0..1048575].  @raise Invalid_argument on a non-well-formed event
    sequence or an id out of that range. *)

type verdict =
  | Accepted  (** a serialization witness exists: the history is opaque *)
  | No_witness of string
      (** the monitor's sufficient condition failed (with the first
          offending transaction); the history may or may not be opaque —
          fall back to {!Opacity.is_opaque} *)

val verdict : t -> verdict
(** The verdict for the events fed so far.  Live transactions are treated
    as aborted-at-the-end (commit-pending ones as either, like the full
    checker).  A failure recorded while feeding is reported first; when
    only live transactions fail, the message names the lowest-numbered
    such process. *)

val run : History.t -> verdict
(** Feed a whole history: the verdict of {!create}, {!step} on each
    event and {!verdict}, raising what {!step} raises.

    {b Cost.}  Each domain keeps the state after every prefix, up to 64
    events, of the last history [run] checked on it.  A history that
    extends one of those prefixes — its {!History.rev_events} spine
    physically has the prefix's spine as a tail, as {!History.append}
    makes it — is checked from there: O(new events) when it extends the
    last history checked on the same domain, as each schedule of the
    model checker's depth-first enumeration extends its parent.  Any
    other history costs O(|h|), walked in place without copying its
    events.  A prefix state is four ints and the failure: while
    recording, each write to a process's ints pushes the int's index
    and old value onto a per-domain trail, and restoring a prefix pops
    the trail back to that state's mark, writing the old values back —
    O(events undone), whatever the number of processes.  Neither saving
    nor restoring allocates once the trail has grown.

    {b Order independence.}  Verdicts and messages depend only on the
    history: not on which histories were checked before on the domain,
    nor on an earlier call that raised part-way.

    {b Retained state.}  Per domain: the spine of the last history of
    at most 64 events, its prefix states (4 ints each), the trail (at
    most 12 ints per event, so under 1,024 ints) and the monitor's
    tables, all bounded by process and t-variable ids below 64; each
    process's read and write logs keep at most 1,024 ints apiece.  A
    history with a larger id, or longer than 64 events, is checked
    without saving prefix states, and the tables it grew are dropped
    afterwards: nothing retained grows with the largest id seen
    or with the longest history. *)

val run_traced : trace:Tm_trace.Sink.t -> History.t -> verdict
(** Like {!run}, but streams the monitor's progress into the sink as it
    goes: an ["epoch"] counter each time a commit is applied, a
    ["no-witness"] instant the moment the sufficient condition first
    fails, and a final ["verdict"] instant.  Timestamps are history-event
    indexes, the same deterministic step clock {!Tm_sim.Runner} traces
    use, so monitor events interleave correctly with runner spans. *)
