(** A transactional bank: the paper's motivating kind of workload.

    The total balance is invariant under {!transfer} (it moves money
    atomically) — the property the multicore stress tests check. *)

type t

val make : accounts:int -> initial:int -> t

val balance : t -> int -> int
(** Snapshot balance of one account. *)

val transfer : t -> from_:int -> to_:int -> amount:int -> bool
(** Atomically move [amount] if the source balance suffices; returns
    whether the transfer happened.  Composable within an enclosing
    transaction. *)

val total : t -> int
(** A consistent snapshot of the total balance (one transaction reading
    every account). *)
