(** A transactional LIFO stack. *)

type 'a t

val make : unit -> 'a t
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
val peek : 'a t -> 'a option

val length : 'a t -> int
val to_list : 'a t -> 'a list
