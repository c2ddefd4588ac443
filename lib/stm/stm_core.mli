(** Shared substrate of the real-domains STM algorithm zoo (internal).

    This module is the algorithm-independent half of [lib/stm]: the
    t-variable representation, the write set every core keeps, the
    observation seam {!Obs} and the core interface {!S} each algorithm
    implements.  User code should go through the {!Stm} facade; the
    types here are exposed so the cores ([Stm_tl2], [Stm_glock],
    [Stm_dstm], [Stm_norec]) can share one t-variable type and so the
    facade can re-export the seam unchanged. *)

type univ = U : 'a Type.Id.t * 'a -> univ
(** The universal type: a value packed with the type witness of the
    t-variable it belongs to (no [Obj]).  Only DSTM's locators hold
    [univ]s: its validation compares these blocks by identity. *)

type locator = {
  l_status : int Atomic.t;
  l_old : univ;
  mutable l_new : univ;
  l_owner : int;
}
(** DSTM-style locator.  [l_status] is the owning transaction's status
    cell, shared across all its locators: 0 = active, 1 = committed,
    2 = aborted; transitions are monotone and terminal.  Only the DSTM
    core reads or writes locators.  [l_owner] is the installing
    domain's plan slot when {!Obs} is armed (-1 otherwise):
    it lets a stealer name the victim of its abort. *)

type 'a tvar = {
  id : int;
  wit : 'a Type.Id.t;
      (** the t-variable's type witness: casts a value found in a
          heterogeneous set back to ['a] *)
  content : 'a Atomic.t;
      (** the committed value, for every core but DSTM once DSTM has
          touched the t-variable *)
  vlock : int Atomic.t;
      (** TL2's versioned lock word; its layout is TL2's own *)
  locator : locator Atomic.t;
      (** DSTM's locator; {!untouched} until DSTM's first access *)
}
(** A t-variable: 17 words when fresh.  Blame owners are derived, not
    stored per t-variable: TL2 decodes one from its vlock word, DSTM
    reads its locator's [l_owner], and the serialized cores keep one
    core-global holder. *)

val tvar : 'a -> 'a tvar
(** A fresh t-variable, coherent under every core: [content] holds the
    initial value and [locator] is {!untouched}.  A t-variable must not
    be shared across algorithm switches: each core maintains its own
    side of the representation. *)

val untouched : locator
(** The shared sentinel of a fresh t-variable's [locator]: committed,
    the value is in [content].  DSTM replaces it with a real locator on
    its first read or write of the t-variable; its fields mean
    nothing. *)

exception Conflict
(** Internal: aborts the current attempt; caught by the facade's retry
    loop.  Cores also convert bounded-spin exhaustion behind a stranded
    lock into [Conflict] so starving domains stay observable. *)

(** The observation seam; see [Stm.Obs] for the user-facing contract
    and [Stm.Algo.sites] for which core reaches which site.  Every site
    is guarded by one [Atomic.get armed]: disarmed, a site costs that
    load and nothing else. *)
module Obs : sig
  type cause = Read_conflict | Lock_busy | Validation | Stolen | Wait_budget
  type outcome = Conflicted | Retried | Raised
  type action = Proceed | Abort | Stall of int | Crash

  type site =
    | Begin
    | Read
    | Lock
    | Validate
    | Publish
    | Conflict of cause
    | Commit
    | Abort of outcome
    | Acquired
    | Owned
    | Released
    | Published
    | Steal
    | Backoff

  exception Crashed

  type subscriber = site -> int -> int -> action
  type handle

  val armed : bool Atomic.t
  (** True while anything is subscribed. *)

  val subscribe : subscriber -> handle
  val unsubscribe : handle -> unit

  val retain : (handle -> bool) -> unit
  (** Drop every subscriber the predicate rejects. *)

  val decide : site -> int -> int -> action
  (** Deliver a site with its payload to every subscriber; the last
      non-[Proceed] answer wins.  Call only from an armed-guarded
      site. *)

  val note : site -> int -> int -> unit
  (** [decide], answer ignored: for sites that inject no fault. *)

  val fire : site -> unit
  (** [decide] without payload, plus the no-locks-held interpretation:
      [Abort] raises
      {!Conflict}, [Stall n] spins, [Crash] raises {!Crashed}.  Commit
      paths that hold locks interpret {!decide} themselves. *)

  val stall : int -> unit

  val slot_bits : int
  (** Bits a plan slot takes in TL2's vlock word. *)

  val set_self : int -> unit
  (** Bind the calling domain's plan slot (its blame identity): -1
      (unknown) or [0 .. 2{^slot_bits} - 2], so that slot + 1 fits the
      vlock's slot bits.
      @raise Invalid_argument on any other slot. *)

  val self : unit -> int
  val cause_label : cause -> string
  val causes : cause list
  val outcome_label : outcome -> string
  val site_label : site -> string
end

(** {1 The shared write set}

    The write set of the write-back cores (TL2, global-lock, NOrec)
    and DSTM's own-write journal, held as data: one entry per written
    t-variable, in arrays each core keeps per domain and reuses for
    every transaction.  The arrays grow by doubling and are never
    freed. *)

type wentry = W : { tv : 'a tvar; mutable v : 'a } -> wentry
(** A written t-variable and its buffered value. *)

val extend : 'a array -> int -> 'a -> 'a array
(** [extend a n fill] is how every per-domain set grows: [a]'s first
    [n] elements in a fresh array with room to double (at least 64),
    filled past them with [fill]. *)

module Wset : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val length : t -> int

  val entry : t -> int -> wentry
  (** The [k]-th entry in sorted order, [0 <= k < length]: after
      {!sort}, [entry 0 .. entry (length - 1)] ascend by id (before it,
      insertion order). *)

  val id : t -> int -> int
  (** The t-variable id of [entry s k]. *)

  val index : t -> 'a tvar -> int
  (** The insertion index of the t-variable's entry, or -1
      (read-own-write lookup; allocates nothing).  {!sort} does not
      move it. *)

  val value : t -> int -> 'a tvar -> 'a
  (** The buffered value at an index {!index} returned for the same
      t-variable. *)

  val add : t -> 'a tvar -> 'a -> unit
  (** Buffer a write: the first write of a t-variable allocates one
      entry block, a rewrite allocates nothing. *)

  val push : t -> 'a tvar -> 'a -> unit
  (** Append an entry for a t-variable the caller knows has none, with
      no search: the one entry block.  A second entry for the same
      t-variable breaks every lookup. *)

  val sort : t -> unit
  (** Put {!entry}/{!id} in ascending-id order — the canonical commit
      order.  It sorts an int permutation of the insertion indices; the
      entries themselves never move, so sorting allocates nothing and
      writes no pointer. *)

  val slot : t -> int -> int
  (** The insertion index of [entry s k]: where a core's own per-entry
      arrays, filled as entries are added, keep what it knows of it. *)

  val find_sorted : t -> int -> int
  (** The insertion index of a t-variable id's entry, or -1, by binary
      search through the sorted order; only valid after {!sort}. *)
end

val write_back : Wset.t -> unit
(** Sort the write set and publish every entry's value, for a
    serialized core holding its one lock; armed, it notes the set as
    [Acquired], [Published] and released under that lock. *)

val spin_budget : int
(** Relax iterations a serialized core spins behind a busy lock before
    converting the wait into {!Conflict} (keeps peers of a crashed lock
    holder starving-but-observable instead of deadlocked). *)

(** {1 The per-algorithm core interface}

    A core supplies the transaction engine; the [Stm] facade owns the
    retry loop (backoff; the [Begin], [Commit], [Abort] and [Backoff]
    sites; per-domain commit/abort count cells) and the per-domain slot
    holding the live transaction.

    Contract:
    - At most one transaction per core is live on a domain at a time.
      [begin_] resets and hands out the domain's reused buffer, the same
      value on every call on a domain (every core keeps its read and
      write sets in per-domain arrays; DSTM also hands it a fresh status
      cell), so beginning a second transaction of the same core on the
      same domain resets the first.  The facade's flat nesting keeps to
      this; direct users of a core must too.
    - [begin_] never blocks and never raises: any waiting happens in
      [read]/[write]/[commit] where the re-run transaction body keeps
      external stop-flags observable.
    - [read]/[write]/[commit] raise {!Conflict} to abort the attempt
      and may raise [Obs.Crashed]; before re-running (or on any
      other exception) the facade calls [abort_cleanup], which must be
      idempotent and release everything the attempt still holds.
      [abort_cleanup] is never called after [Obs.Crashed]: a crashed
      transaction keeps whatever it holds, by design.
    - [commit] returning normally means the transaction took effect
      and the core has released everything.
    - [recover] releases any {e core-global} state abandoned by crashed
      transactions (the serializer, the sequence lock); per-t-variable
      state (vlocks, locators) is recovered by dropping the crashed
      run's t-variables.  Only sound once every transaction of the core
      is finished or dead — it is for fault-injection harnesses tearing
      down a run, not for concurrent use. *)
module type S = sig
  type txn

  val algo_name : string
  val begin_ : unit -> txn
  val read : txn -> 'a tvar -> 'a
  val write : txn -> 'a tvar -> 'a -> unit
  val commit : txn -> unit
  val abort_cleanup : txn -> unit
  val recover : unit -> unit
  val direct_read : 'a tvar -> 'a
end
