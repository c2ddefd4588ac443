(** A priority variant of [Fgp], answering the paper's concluding-remarks
    question about liveness properties that "guarantee progress for
    processes with higher priority".

    Identical to {!Fgp} except for the commit rule: a process may commit
    only if no {e higher-priority} process (lower identifier = higher
    priority) is currently in the concurrent group; otherwise its [tryC]
    is answered with an abort.  Consequently the highest-priority process
    is never aborted at all — it enjoys {e local} progress — and in
    fault-free runs priorities are served in order (the progress_zoo and
    FW experiments measure this).

    The cost is exactly what Theorem 1 predicts for any such strengthening:
    the guarantee needs fault-freedom above you in the priority order.  A
    crashed or parasitic process stays in the concurrent group forever, and
    every lower-priority process aborts forever — so [priority_progress]
    for the remaining correct processes fails in fault-prone systems, and
    the TM as a whole still only ensures global progress there when the
    faulty process is the lowest-priority one.  Opacity is unaffected (the
    commit rule is strictly more restrictive than [Fgp]'s). *)

include Tm_intf.S
