(** exported-unused: a [val] of a [lib/*/*.mli] that no file other than
    its own [.ml] names, qualified by its module or bare.  No user at
    all is a warning; users only under [test/] is info.  Suppressible
    with [tmstatic: allow exported-unused REASON] on or above the
    [val] line. *)

val rule : string

val check :
  interfaces:Source.intf list -> users:Source.t list ->
  Tm_analysis.Finding.t list
(** [users] are the implementations whose identifiers count; their
    [path]s are root-relative, so [test/...] marks a test. *)
