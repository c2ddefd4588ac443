(** A real software transactional memory for OCaml 5 (multicore), with a
    pluggable algorithm zoo.

    Four algorithms run behind one interface (see {!Algo}): TL2 (the
    default — global version clock, per-t-variable versioned spinlocks,
    deferred updates, commit-time validation), a global-lock
    serializer, a DSTM-style obstruction-free TM (revocable ownership
    records with abort-others stealing) and NOrec (value-based
    validation under a single sequence lock).  All of them share the
    one observation seam {!Obs} — with {!Trace}, a chaos plan, the
    telemetry probe and the blame graph as its subscribers — and the
    same transactional data-structure layer ([txn_*]).

    Consistently with the paper's impossibility result (no TM ensures
    opacity and local progress in a fault-prone system), no core makes
    a per-transaction progress guarantee: a transaction may be aborted
    and retried an unbounded number of times under contention.  What
    every core does ensure is opacity — every transaction, even one
    about to abort, sees a consistent snapshot.  Where they differ is
    exactly the paper's Section 3.2.3 liveness territory: which
    processes keep progressing when a peer crashes, stalls or turns
    parasitic (see [Tm_chaos] and the per-algorithm verdict matrix).

    Usage:
    {[
      let acc1 = Stm.tvar 100 and acc2 = Stm.tvar 0 in
      Stm.atomically (fun () ->
          let v = Stm.read acc1 in
          Stm.write acc1 (v - 10);
          Stm.write acc2 (Stm.read acc2 + 10))
    ]} *)

type 'a tvar

val tvar : 'a -> 'a tvar
(** A fresh transactional variable with the given initial value.  A
    t-variable belongs to the algorithm that first commits to it: do
    not carry t-variables across {!set_algo} switches (each core
    maintains its own side of the shared representation). *)

val atomically : (unit -> 'a) -> 'a
(** Run the function as a transaction under the currently selected
    algorithm: reads/writes of t-variables inside it are isolated and
    take effect atomically at commit.  On conflict the transaction is
    rolled back and re-executed (with randomized exponential backoff).
    Nesting is flattened: an [atomically] inside a transaction joins
    the enclosing one. *)

val read : 'a tvar -> 'a
(** Inside a transaction: a validated transactional read.  Outside: an
    atomic snapshot read. *)

val write : 'a tvar -> 'a -> unit
(** Inside a transaction: a deferred transactional write.
    @raise Invalid_argument outside a transaction. *)

exception Retry
(** User-requested retry: {!retry} aborts the current attempt and re-runs
    the transaction from the start (after backoff).  The classic
    busy-waiting [retry] — there is no parking. *)

val retry : unit -> 'a

val in_transaction : unit -> bool

val stats : unit -> int * int
(** [(commits, aborts)] since program start, summed over all domains
    and algorithms.

    Each domain counts its own transactions in a cell only it writes
    (no counter is shared between domains), and [stats] sums the cells.
    Publication rule: the sum is exact for the caller's own
    transactions and for those of every domain the caller has joined
    (an exiting domain folds its counts into a retired total before
    {!Domain.join} returns).  Domains still running may lag: their
    latest commits can be missing from the sum. *)

val recover : unit -> unit
(** Release core-global lock state abandoned by crashed transactions of
    the {e currently selected} algorithm — the stranded global-lock
    serializer, NOrec's odd sequence lock.  For fault-injection
    harnesses tearing down a run after every domain is joined: a
    crashed transaction never releases anything itself ({!Obs}), and
    the serialized cores' locks are process-global, so without recovery
    one crashed run would starve every later run of the same core in
    the process.  Only sound while no transaction of the algorithm is
    in flight; per-t-variable state (TL2 vlocks, DSTM locators) is
    instead recovered by dropping the crashed run's t-variables.

    [recover] also drops every {!Obs} subscriber except a running
    {!Trace} session: a harness that died between subscribing and
    unsubscribing must not leave a chaos plan, probe or blame graph
    armed across runs.  [recover] is safe to call twice. *)

(** The algorithm zoo: which core {!atomically} runs. *)
module Algo : sig
  type t =
    | Tl2  (** the default: progressive, per-location versioned locks *)
    | Global_lock  (** one serializer lock; blocking *)
    | Dstm  (** obstruction-free ownership records, aggressive stealing *)
    | Norec  (** value-based validation under a single sequence lock *)

  val all : t list

  val name : t -> string
  (** ["tl2"], ["global-lock"], ["dstm"], ["norec"] — the [--algo]
      vocabulary. *)

  val of_string : string -> (t, string) result

  val progress_label : t -> string
  (** The Kuznetsov–Ravi progress family: ["progressive"],
      ["blocking"], ["obstruction-free"], ["commit-serialized"]. *)

  val sites : t -> Stm_core.Obs.site list
  (** The {!Obs.site}s this core reaches itself — one announcement
      table per core, enforced at run time by the truthfulness test and
      statically by [tmlive static]'s seam-contract.  The facade adds
      [Begin], [Commit], [Abort] and [Backoff] for every core.  Notable
      truths: only global-lock and DSTM lock in the body ([Owned]),
      the global-lock serializer never reaches [Validate],
      NOrec never reaches [Lock], only DSTM steals ([Steal],
      [Conflict Stolen]), only TL2 backs locks out ([Released]) or
      conflicts per location ([Read_conflict], [Lock_busy]), and the
      serialized cores convert waits into [Conflict Wait_budget]. *)
end

val set_algo : Algo.t -> unit
(** Select the algorithm used by subsequent transactions (initially
    {!Algo.Tl2}).  Not synchronized with in-flight transactions: switch
    only while no domain is inside {!atomically}. *)

val algo : unit -> Algo.t

val with_algo : Algo.t -> (unit -> 'a) -> 'a
(** [with_algo a f] runs [f] with [a] selected, restoring the previous
    selection afterwards (single-controller discipline; do not nest
    concurrently from several domains). *)

(** The observation seam: one armed flag, one site vocabulary.

    Every decision site of the cores and of the retry loop is one
    {!site}.  While nothing is subscribed a site costs one atomic flag
    read and allocates nothing; arming changes what is {e observed},
    never what the algorithms {e decide}.  Armed, each site goes to
    every subscriber, in subscription order, on the emitting domain,
    with two int payloads [a] and [b]:

    - [Begin] — an attempt starts; [a] is its attempt number;
    - [Read] — before a transactional read;
    - [Lock] — before a lock or ownership acquisition (TL2 per
      write-set entry, global-lock per serializer request, DSTM per
      ownership);
    - [Validate] — before commit-time validation;
    - [Publish] — validated, before publishing; locks are held;
    - [Conflict c] — the attempt is impeded for cause [c]; [a] names
      the other party's slot (the aggressor, except for [Stolen], which
      the stealer reports and which names the victim) and [b] the
      t-variable (-1 none);
    - [Commit] — the commit took effect; [Abort o] — the attempt ends
      without one;
    - [Acquired] ([a] t-variable, [b] lock order), [Released] and
      [Published] ([a] t-variable, noted while the lock is still held),
      [Steal] ([a] t-variable, before the steal CAS) — the lock
      protocol the trace renders;
    - [Owned] — the serializer or ownership a global-lock or DSTM
      [Lock] site asked for is held ([a] the t-variable, -1 for the
      serializer); the trace does not render it;
    - [Backoff] — [a] the attempt count the bound grows with, [b] the
      spins.

    Subscribers answer with an {!action}.  Only a fault plan answers
    anything but [Proceed], and the answer counts at [Read], [Lock],
    [Validate], [Publish] and [Commit]:

    - [Abort] — abort the current attempt as an ordinary conflict
      (counted, backed off and retried; anything the attempt holds is
      released or revoked first; at [Commit] there is nothing left to
      abort);
    - [Stall n] — spin for [n] {!Domain.cpu_relax} iterations;
    - [Crash] — raise {!Crashed} out of {!atomically} {e without
      releasing} anything the domain holds.  A [Crash] at [Publish]
      under a lock-based core leaves locks stranded forever — the
      paper's crashed-lock-holder adversary — while under DSTM the
      abandoned ownerships are simply stolen.

    Which core reaches which site is {!Algo.sites}.  Identity is the
    {e plan slot} bound with {!set_self} by the harness that owns the
    run; unslotted domains report -1.  Subscribers must be domain-safe
    and non-blocking.  The subscribers are {!Trace},
    [Tm_chaos.Runner]'s fault plans, [Tm_telemetry.Stm_probe] and
    [Tm_telemetry.Blame_graph]. *)
module Obs : sig
  type cause = Stm_core.Obs.cause =
    | Read_conflict  (** TL2: read saw a locked or too-new t-variable *)
    | Lock_busy  (** TL2: commit-time write-set lock acquisition lost *)
    | Validation  (** read-set (re)validation failed *)
    | Stolen  (** DSTM: ownership stolen — the victim's commit is doomed *)
    | Wait_budget  (** spin budget exhausted behind a serialized lock *)

  type outcome = Stm_core.Obs.outcome =
    | Conflicted
    | Retried  (** {!retry} *)
    | Raised  (** an exception escaped the body *)

  type action = Stm_core.Obs.action =
    | Proceed
    | Abort
    | Stall of int
    | Crash

  type site = Stm_core.Obs.site =
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
  (** Escapes {!atomically} on a [Crash] answer; held locks stay held. *)

  type subscriber = site -> int -> int -> action
  type handle = Stm_core.Obs.handle

  val subscribe : subscriber -> handle
  (** Subscribe and arm every site. *)

  val unsubscribe : handle -> unit
  (** The last unsubscribe disarms: back to the one-flag-read fast
      path. *)

  val set_self : int -> unit
  (** Bind the calling domain's plan slot: -1 (unknown) or 0 to 254,
      the slots TL2's vlock word can name.
      @raise Invalid_argument on any other slot. *)

  val self : unit -> int

  val cause_label : cause -> string
  (** ["read-conflict"], ["lock-busy"], ["validation"], ["stolen"],
      ["wait-budget"]. *)

  val causes : cause list
  (** Every cause, in label order — the stable axis of exported
      histograms. *)

  val site_label : site -> string
end

(** Runtime tracing: the {!Obs} subscriber that renders sites as trace
    events.

    Off by default.  When on, each domain records into its own
    fixed-capacity ring buffer ({!Tm_trace.Ring}), so tracing a long
    run keeps only the most recent events per domain and never grows
    memory.  A session records an attempt only if it saw the attempt
    begin, so a commit traces all of its lock events or none.  Event
    timestamps are a global emission sequence number (a total order of
    emissions), not wall-clock time. *)
module Trace : sig
  val start : ?capacity:int -> unit -> unit
  (** Enable tracing into per-domain rings of [capacity] events
      (default 4096).  Discards events from any previous session. *)

  val start_null : unit -> unit
  (** Enable tracing with a null sink: events are constructed and counted
      but not stored.  For measuring emission overhead. *)

  val stop : unit -> unit
  (** Disable tracing.  Recorded events remain readable via {!events}. *)

  val is_on : unit -> bool

  val events : unit -> Tm_trace.Trace_event.t list
  (** Events retained across all domain rings, ordered by timestamp. *)

  val dropped : unit -> int
  (** Events overwritten in ring buffers (sum over domains). *)

  val emitted : unit -> int
  (** Events emitted since the last [start]/[start_null], including
      dropped and null-sunk ones. *)
end
