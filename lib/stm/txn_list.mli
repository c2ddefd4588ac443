(** A transactional sorted linked-list set of integers.

    The classic first STM benchmark structure (Herlihy et al., PODC 2003 —
    the paper's reference [14] introduced DSTM with exactly this example).
    Each node's next-pointer is a t-variable, so operations compose with
    any enclosing transaction. *)

type t

val make : unit -> t

val add : t -> int -> bool
(** [add t k] inserts [k]; false if already present. *)

val remove : t -> int -> bool
val mem : t -> int -> bool

val to_list : t -> int list
(** A consistent snapshot, ascending. *)
