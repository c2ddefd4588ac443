(** Deterministic seeded client populations.

    A workload value is a pure description: the request a given client
    issues at a given index is a function of (seed, client, index) and
    nothing else — every generator draw comes from a splitmix stream
    keyed on that triple, so any multiplexing of clients onto worker
    domains replays the identical request sequence.

    The key space is split into two planes.  {e Even} keys are the kv
    plane: gets, puts and cas land there, targeted through a Zipfian
    rank over the even keys (heaviest rank = key 0), modelling a hot
    set.  {e Odd} keys are the counter plane: multi-key transactions
    transfer between counter keys in deltas that sum to zero, so the
    counter plane's total is an exact conservation invariant any
    correct run must keep at 0. *)

type profile = Read_mostly | Write_heavy | Long_txn | Mixed

val profiles : profile list
val profile_name : profile -> string
(** ["read-mostly"], ["write-heavy"], ["long-txn"], ["mixed"]. *)

val profile_of_string : string -> (profile, string) result
val describe : profile -> string

type request =
  | Single of Store.op  (** one-key request *)
  | Txn of Store.op list  (** multi-key transaction *)

val kinds : string list
(** Request-kind labels in canonical (sorted) order:
    ["cas"; "get"; "put"; "txn"]. *)

val kind : request -> string

val kind_index : request -> int
(** The position of {!kind} in {!kinds}: the index executors keep their
    per-kind instruments under. *)

val mutates : request -> bool

val cost : request -> int
(** Admission cost in queue units: 8 for a get, 14 for a put or cas,
    [8 + 6 * length] for a transaction.  See {!Server} for the virtual
    bounded-queue admission model these prices feed. *)

type t

val create : profile:profile -> seed:int -> keys:int -> unit -> t
(** The Zipf exponent over the kv plane is 1.07.
    @raise Invalid_argument if [keys < 4] (each plane needs >= 2 keys). *)

val profile : t -> profile
val seed : t -> int
val keys : t -> int
val zipf : t -> Zipf.t

val fill : t -> Store.buffer -> client:int -> index:int -> unit
(** Write the [index]-th request of [client] into the buffer, with its
    {!kind_index}, {!cost} and {!mutates}: the one request generator.
    It reseeds the buffer's generator in place ({!Tm_sim.Prng.reseed})
    and allocates nothing.

    Draw order, fixed because the request streams are pinned: after
    the profile draw, a get draws its key; a put draws its value, then
    its key; a cas draws the desired value, then the expected value,
    then its key; a transfer draws its two counter slots, then its
    delta; a long transaction draws its four read keys, then eight
    transfers, and holds the transfers after the reads in reverse draw
    order (the last transfer drawn is ops 4 and 5). *)

val single_put : Store.buffer -> bool
(** Whether the buffered request is a single-key put (what the flat
    combiner takes). *)

val view : Store.buffer -> request
(** The buffered request as a {!request} value. *)

val request : t -> client:int -> index:int -> request
(** The [index]-th request of [client] — deterministic, stateless: the
    {!view} of {!fill} into a per-domain scratch buffer. *)
