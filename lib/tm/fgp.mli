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

type state

val state : t -> state
(** A snapshot of the automaton state (for the explorer and tests). *)

val pp_state : Format.formatter -> state -> unit
