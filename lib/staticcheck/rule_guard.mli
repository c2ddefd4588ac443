(** seam-guard: every [Obs] site must be dominated by the
    [Atomic.get Obs.armed] disarmed check, preserving the
    <100 ns/event disarmed discipline of bench §P5. *)

val rule : string

val check : Source.t -> Tm_analysis.Finding.t list
(** Error findings at each undominated site line.  Suppressible with a
    [tmstatic: allow seam-guard] comment on the same or the preceding
    line. *)
