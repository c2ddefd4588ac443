open Tm_history

(** Transaction workloads for the simulation runner.

    A workload turns a (process-local) PRNG and a transaction index into a
    {e body}: the operations the transaction performs before invoking
    [tryC].  Written values may depend on the values read so far, which is
    how counters and transfers are expressed. *)

type op =
  | W_read of Event.tvar
  | W_write of Event.tvar * ((Event.tvar -> Event.value) -> Event.value)
      (** the value written, computed from [latest]: [latest x] is the
          value this transaction (this attempt) last read from [x], or 0
          if it has read none *)

type body = op list

type t = { body : Prng.t -> int -> body  (** PRNG, transaction index *) }

(** What the current attempt of a transaction has read, for its writes'
    [latest]: per t-variable, the value last read and the attempt that
    read it.  Starting an attempt forgets every read without clearing
    the arrays, so recording and looking up allocate nothing. *)
module Reads : sig
  type t

  val create : ntvars:int -> t
  (** No reads yet. *)

  val next_attempt : t -> unit
  (** Start a new attempt: forget every read. *)

  val record : t -> Event.tvar -> Event.value -> unit
  (** The attempt read [v] from the t-variable [x] (in [0, ntvars)). *)

  val latest : t -> Event.tvar -> Event.value
  (** The value this attempt last read from [x], or 0 if it read none (or
      [x] is out of range). *)
end

val counter : ntvars:int -> t
(** Read a random t-variable and write back its value plus one — the
    paper's canonical conflicting workload (Figures 5, 6: read v, write
    v+1).  A body is immutable: for t-variables below 64 every draw
    returns one shared body, so drawing allocates nothing. *)

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
