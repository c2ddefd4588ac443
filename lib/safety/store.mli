open Tm_history

(** An immutable snapshot of the t-variables' committed state.

    Every t-variable initially holds [0] (the convention used by all of the
    paper's figures).  Stores are persistent maps, cheap to copy during the
    serialization search. *)

type t

val initial : t
(** All t-variables hold 0. *)

val get : t -> Event.tvar -> Event.value
val set : t -> Event.tvar -> Event.value -> t

val apply_writes : t -> (Event.tvar * Event.value) list -> t
(** Apply writes in order (later writes to the same t-variable win). *)

val bindings : t -> (Event.tvar * Event.value) list
(** Non-default bindings, ascending by t-variable; usable as a hash key. *)

val equal : t -> t -> bool
