(** A transactional FIFO queue (two-list functional queue in t-variables). *)

type 'a t

val make : unit -> 'a t
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** [None] when empty. *)

val length : 'a t -> int
val to_list : 'a t -> 'a list
