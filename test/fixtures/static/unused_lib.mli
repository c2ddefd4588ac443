(* exported-unused fixture: the interface under check. *)

val dead : int
val used_qualified : int
val used_aliased : int
val used_bare : int
val test_only : int

val excused : int (* tmstatic: allow exported-unused read by a generated stub *)

(* tmstatic: allow exported-unused *)
val excused_without_reason : int

module Inner : sig
  val inner_dead : int
  val inner_used : int
end

val used_let_open : int
val used_local_open : int
val shadowed : int
