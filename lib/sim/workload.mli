open Tm_history

(** Transaction workloads for the simulation runner.

    A workload turns a (process-local) PRNG and a transaction index into a
    {e body}: the operations the transaction performs before invoking
    [tryC].  Written values may depend on the values read so far, which is
    how counters and transfers are expressed. *)

type op =
  | W_read of Event.tvar
  | W_write of Event.tvar * ((Event.tvar * Event.value) list -> Event.value)
      (** the argument maps each t-variable to the {e latest} value this
          transaction read from it *)

type body = op list

type t = { body : Prng.t -> int -> body  (** PRNG, transaction index *) }

val counter : ntvars:int -> t
(** Read a random t-variable and write back its value plus one — the
    paper's canonical conflicting workload (Figures 5, 6: read v, write
    v+1). *)

val read_heavy : ntvars:int -> reads:int -> t
(** [reads] random reads, then one increment of a random t-variable. *)

val read_only : ntvars:int -> reads:int -> t

val write_only : ntvars:int -> writes:int -> t
(** Blind writes of the transaction index; used for parasites, who must
    never be aborted to stay parasitic (blind writes never fail
    validation in deferred-update TMs). *)

val transfer : ntvars:int -> t
(** Move one unit between two distinct random t-variables (a bank
    transfer); total balance is invariant under committed transactions. *)

val fixed : body list -> t
(** A fixed cyclic sequence of transaction bodies (index modulo length). *)
