(** The paper's global-progress automaton [Fgp] (Section 6, Theorem 3).

    Each state is a tuple [(Status, CP, Val, f)]:

    - [Status.(k) ∈ {c, a}] — when [a], some process committed while [pk]
      was in the concurrent group, and [pk]'s next response is the abort
      event [A_k] (after which its status reverts to [c]);
    - [CP] — the current group of mutually concurrent processes, none of
      which has committed; every invocation adds its process to [CP]; a
      commit empties it;
    - [Val.(k).(j)] — process [pk]'s view of t-variable [xj]; reads return
      it, writes update it, and a commit by [pk] broadcasts [pk]'s row to
      every process;
    - [f] — the pending invocation of each process (the mailbox).

    On commit of [pk], every {e other} process in [CP] gets status [a].
    This follows the paper's prose (and its Figure 16 example history); the
    paper's formal transition rule says {e every other process} gets status
    [a], which contradicts both — we follow the prose and record the
    discrepancy here and in DESIGN.md.

    One further repair, also recorded in DESIGN.md: the paper's write rule
    updates [Val.(k).(j)] at invocation time with no status guard, so a
    doomed process's buffered write would survive its abort and be read
    back by its {e next} transaction, violating opacity.  We keep a
    committed snapshot and reset [Val.(k)] to it when delivering [A_k],
    which is what the Theorem-3 opacity proof implicitly assumes.

    [Fgp] is responsive (every poll answers), ensures opacity, and ensures
    global progress in every fault-prone system; it does {e not} ensure
    local progress — consistently with Theorem 1 — because whichever group
    member commits first dooms the rest. *)

include Tm_intf.S

(** A priority variant (["fgp-priority"]), answering the paper's
    concluding-remarks question about liveness properties that
    "guarantee progress for processes with higher priority".

    It differs from [Fgp] in two rules.  The commit rule: a process may
    commit only if no {e higher-priority} process (lower identifier =
    higher priority) is currently in the concurrent group; otherwise its
    [tryC] is answered with an abort.  The abort rule: delivering [A_k]
    also removes [pk] from [CP], where [Fgp] keeps it there until the
    next commit.  So the next commit of another process dooms [pk] under
    [Fgp] but not here: if p2's write is aborted and p1 then commits,
    p2's next read aborts under [Fgp] and returns a value under this
    variant.

    Consequently the highest-priority process is never aborted at all —
    it enjoys {e local} progress — and in fault-free runs priorities are
    served in order (the progress_zoo and FW experiments measure this).
    The cost is exactly what Theorem 1 predicts for any such
    strengthening: the guarantee needs fault-freedom above you in the
    priority order.  A crashed or parasitic process stays in the
    concurrent group forever, and every lower-priority process aborts
    forever — so [priority_progress] for the remaining correct processes
    fails in fault-prone systems, and the TM as a whole still only
    ensures global progress there when the faulty process is the
    lowest-priority one.  Opacity is unaffected (the commit rule is
    strictly more restrictive than [Fgp]'s). *)
module Priority : Tm_intf.S

type state

val state : t -> state
(** The automaton state [(Status, CP, Val, f)], Figure 15's graph key.
    It leaves out the committed snapshot that delivering [A_k] restores,
    so it determines the future only for one process, which is never
    aborted: with two, states that differ only in that snapshot restore
    different views on p2's abort (test_sim "fgp's key needs one
    process"). *)

val pp_state : Format.formatter -> state -> unit
