(** Shared substrate of the real-domains STM algorithm zoo (internal).

    This module is the algorithm-independent half of [lib/stm]: the
    t-variable representation, the write set the write-back cores
    share, the observation seam {!Obs} and the core interface {!S} each
    algorithm implements.  User code
    should go through the {!Stm} facade; the types here are exposed so
    the cores ([Stm_tl2], [Stm_glock], [Stm_dstm], [Stm_norec]) can
    share one t-variable type and so the facade can re-export the seam
    unchanged. *)

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
  vlock : int Atomic.t;
  locator : locator Atomic.t;
  owner : int Atomic.t;
      (** plan slot of the last lock holder / committed writer, written
          only while {!Obs} is armed (-1 = unknown) *)
}

val tvar : 'a -> 'a tvar
(** A fresh t-variable, coherent under every core: [content] and the
    initial (committed) locator both hold the initial value.  A
    t-variable must not be shared across algorithm switches: each core
    maintains its own side of the representation. *)

val univ : 'a tvar -> 'a -> univ
(** Pack a value of the t-variable (a fresh block each call). *)

val of_univ : 'a tvar -> univ -> 'a
(** Unpack a value packed for the same t-variable. *)

val root_status : int Atomic.t
(** The permanently-committed status cell shared by all initial
    locators. *)

exception Retry
(** User-requested retry; see [Stm.retry]. *)

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

  val set_self : int -> unit
  (** Bind the calling domain's plan slot (its blame identity). *)

  val self : unit -> int
  val cause_label : cause -> string
  val causes : cause list
  val outcome_label : outcome -> string
  val site_label : site -> string
end

(** {1 Versioned-lock helpers (TL2's vlock word)} *)

val locked : int -> bool
val version_of : int -> int
val read_vlock : 'a tvar -> int
val try_lock_tvar : 'a tvar -> bool
val unlock_tvar : 'a tvar -> unit

val publish_tvar : 'a tvar -> 'a -> int -> unit
(** Set the content and release the vlock at the given version. *)

(** {1 The shared write set}

    The write set of the write-back cores (TL2, global-lock, NOrec),
    held as data: one entry per written t-variable, in arrays each core
    keeps per domain and reuses for every transaction.  The arrays grow
    by doubling and are never freed. *)

type wentry = W : { tv : 'a tvar; mutable v : 'a } -> wentry
(** A written t-variable and its buffered value. *)

module Wset : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val length : t -> int

  val entry : t -> int -> wentry
  (** The [i]-th entry, [0 <= i < length]. *)

  val index : t -> 'a tvar -> int
  (** The index of the t-variable's entry, or -1 (read-own-write
      lookup; allocates nothing). *)

  val value : t -> int -> 'a tvar -> 'a
  (** The buffered value at an index {!index} returned for the same
      t-variable. *)

  val add : t -> 'a tvar -> 'a -> unit
  (** Buffer a write: the first write of a t-variable allocates one
      entry block, a rewrite allocates nothing. *)

  val sort : t -> unit
  (** Order the entries by ascending id, in place — the canonical
      commit order. *)

  val mem_sorted : t -> int -> bool
  (** Whether a t-variable id has an entry, by binary search; only
      valid after {!sort}. *)
end

val write_back : Wset.t -> unit
(** Sort the write set and publish every entry's value, for a
    serialized core holding its one lock; armed, it notes the set as
    [Acquired], [Published] and released under that lock. *)

val snapshot_read : 'a tvar -> 'a
(** Direct atomic snapshot read through the vlock seqlock. *)

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
      [begin_] hands out the domain's reused buffer (the write-back
      cores keep their read and write sets in per-domain arrays), so
      beginning a second transaction of the same core on the same
      domain resets the first.  The facade's flat nesting keeps to
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

type packed = P : (module S with type txn = 't) * 't -> packed
(** A core paired with one of its transactions — the facade's live
    transaction.  For a core whose [begin_] hands out its domain's
    reused buffer the facade builds the pair once per domain. *)
