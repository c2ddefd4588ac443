(** A fixed-size domain worker pool with a deque-based work queue.

    [create ~jobs] spawns [jobs - 1] worker domains; the submitting domain
    is the remaining worker, so [jobs] bounds the total parallelism.  Work
    items are pushed at the back of a shared deque; resting workers take
    from the front while the submitter, once it has enqueued a whole
    batch, helps from the back — the classic two-ended discipline that
    keeps the submitter on the freshest (cache-warm) items.

    A pool with [jobs = 1] never spawns a domain and runs every batch
    inline in the caller, which makes it the bit-for-bit reference for
    the parallel runs: {!map_array} writes each result into its input's
    slot and is therefore independent of execution order by
    construction. *)

type t

val create : jobs:int -> t
(** [create ~jobs] is a pool of [max 1 jobs] workers. *)

val jobs : t -> int

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array pool f xs] computes [f] on every element, sharded across
    the pool's domains, and returns the results in input order.  [f] must
    not itself submit work to the same pool.  If any application raises,
    one such exception is re-raised in the caller after the whole batch
    has drained. *)

val shutdown : t -> unit
(** Ends the worker domains (idempotent).  Outstanding batches finish
    first; submitting after shutdown raises [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down
    afterwards, also on exception. *)
