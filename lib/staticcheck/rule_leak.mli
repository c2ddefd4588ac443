(** armed-leak: a top-level definition that arms the seam
    ([X.subscribe], [X.install], [Trace.start]) must also mention the
    matching disarm ([unsubscribe], [uninstall] or [Stm.recover]; or
    [Trace.stop] for a trace session — application or bare ident both
    count).  Suppressible with [tmstatic: allow armed-leak]. *)

val rule : string

val check : Source.t -> Tm_analysis.Finding.t list
