(** A real software transactional memory for OCaml 5 (multicore), with a
    pluggable algorithm zoo.

    Four algorithms run behind one interface (see {!Algo}): TL2 (the
    default — global version clock, per-t-variable versioned spinlocks,
    deferred updates, commit-time validation), a global-lock
    serializer, a DSTM-style obstruction-free TM (revocable ownership
    records with abort-others stealing) and NOrec (value-based
    validation under a single sequence lock).  All of them share the
    {!Trace}, {!Chaos} and {!Tel} observation seams and the same
    transactional data-structure layer ([txn_*]).

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
    crashed transaction never releases anything itself ({!Chaos}), and
    the serialized cores' locks are process-global, so without recovery
    one crashed run would starve every later run of the same core in
    the process.  Only sound while no transaction of the algorithm is
    in flight; per-t-variable state (TL2 vlocks, DSTM locators) is
    instead recovered by dropping the crashed run's t-variables.

    [recover] also disarms all three installable observation seams
    ({!Chaos}, {!Tel}, {!Blame}): a harness that died between install
    and uninstall must not leave a handler armed across runs.  The
    uninstalls are idempotent, so [recover] is safe to call twice. *)

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
  val describe : t -> string

  val progress_label : t -> string
  (** The Kuznetsov–Ravi progress family: ["progressive"],
      ["blocking"], ["obstruction-free"], ["commit-serialized"]. *)

  val tel_phases : t -> Stm_core.Tel.phase list
  (** The per-algorithm phase mapping: exactly the {!Tel.phase}s this
      core can emit.  Enforced by the phase-mapping test; notable
      truths: NOrec and DSTM never emit [Lock] (no per-location
      lock-acquire phase exists), the global-lock serializer never
      emits [Validate]. *)

  val chaos_points : t -> Stm_core.Chaos.point list
  (** The {!Chaos.point}s this core fires, same contract.  The
      global-lock core never fires [Validate]; NOrec never fires
      [Lock_acquire]. *)

  val blame_causes : t -> Stm_core.Blame.cause list
  (** The {!Blame.cause}s this core can emit, same truthfulness
      contract.  Only the stealing DSTM core can emit [Stolen]; the
      serialized cores (global-lock, NOrec) convert conflicts into
      [Wait_budget] behind their single lock; TL2 is the only core
      with per-location [Read_conflict]/[Lock_busy]. *)
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

(** Runtime tracing.

    Off by default; the instrumented hot paths pay a single atomic flag
    read per potential event when tracing is off.  When on, each domain
    records into its own fixed-capacity ring buffer ({!Tm_trace.Ring}),
    so tracing a long run keeps only the most recent events per domain
    and never grows memory.  Event timestamps are a global emission
    sequence number (a total order of emissions), not wall-clock time. *)
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

(** Deterministic fault-injection interception points.

    Disarmed by default; every interception point then costs a single
    atomic flag read — the same zero-cost discipline as {!Trace}.  An
    installed handler is consulted at up to five points of the hot
    path ({!point}) and answers with an {!action}:

    - [Proceed] — no fault;
    - [Abort] — abort the current attempt as an ordinary conflict (it is
      counted, backed off and retried, and anything the attempt holds —
      commit vlocks, the serializer, the sequence lock, ownerships —
      is released or revoked first);
    - [Stall n] — spin for [n] {!Domain.cpu_relax} iterations, modelling
      a slow or descheduled process;
    - [Crash] — raise {!Crashed} out of {!atomically} {e without
      releasing} anything the domain holds.  Under the lock-based
      cores a [Crash] at [Pre_commit] leaves locks stranded forever —
      the paper's crashed-lock-holder adversary, under which
      conflicting peers starve; under the obstruction-free DSTM core
      the abandoned ownerships are simply stolen and peers progress.

    Which core fires which point, and what is held there, is the
    per-algorithm mapping {!Algo.chaos_points} (e.g. the global-lock
    core fires [Read] only with the serializer already held).

    Handlers run on the faulting domain and must be domain-safe.  This
    is the mechanism only; seeded fault plans, scenarios and empirical
    verdicts live in the [Tm_chaos] library. *)
module Chaos : sig
  type point = Stm_core.Chaos.point =
    | Read  (** before each transactional read *)
    | Validate  (** before read-set validation *)
    | Lock_acquire  (** before a lock/ownership acquisition *)
    | Pre_commit  (** after validation, before publishing (held) *)
    | Post_commit  (** after the commit took effect (released) *)

  type action = Stm_core.Chaos.action =
    | Proceed
    | Abort
    | Stall of int
    | Crash

  exception Crashed
  (** Escapes {!atomically} on a [Crash] action; held locks stay held. *)

  val install : (point -> action) -> unit
  (** Install a handler and arm every interception point.  Replaces any
      previously installed handler. *)

  val uninstall : unit -> unit
  (** Disarm: back to the null handler and the one-flag-read fast path. *)

  val is_armed : unit -> bool

  val point_label : point -> string
  (** ["read"], ["validate"], ["lock-acquire"], ["pre-commit"],
      ["post-commit"]. *)
end

(** Always-on telemetry probe.

    The third user of the null-by-default discipline of {!Trace} and
    {!Chaos}: while no probe is installed every instrumented event costs
    a single atomic flag read and nothing is allocated; the probe record
    itself is only loaded once the flag is armed.

    An installed probe sees, per transaction attempt, a
    [count Begin]; per transactional read a [count Read]; and phase
    durations via [observe] — which phases exist depends on the
    selected algorithm ({!Algo.tel_phases}): under TL2 [Lock]
    (acquiring the write-set vlocks), [Validate] (write-version draw
    plus read-set validation) and [Publish] (publishing and releasing)
    within a write commit; under the global-lock core [Lock] (the
    serializer) and [Publish] but no [Validate]; under NOrec and DSTM
    [Validate] and [Publish] but no [Lock].  Every algorithm reports
    the whole-attempt [Commit]/[Abort] latency from attempt start to
    outcome.  Durations are deltas of the probe's own [now] clock — the
    probe chooses the unit (tm_telemetry installs a monotonic
    nanosecond clock), which keeps this library clock-agnostic.

    Probes run on the transaction's domain and must be domain-safe and
    non-blocking; [tm_telemetry]'s sharded instruments are the intended
    implementation. *)
module Tel : sig
  type phase = Stm_core.Tel.phase =
    | Begin  (** counted: a transaction attempt started *)
    | Read  (** counted: a validated transactional read *)
    | Lock  (** observed: lock acquisition (TL2, global-lock) *)
    | Validate  (** observed: read-set validation (TL2, DSTM, NOrec) *)
    | Publish  (** observed: making the write set visible *)
    | Commit  (** observed: whole-attempt latency of a commit *)
    | Abort  (** observed: whole-attempt latency of an abort *)

  type probe = Stm_core.Tel.probe = {
    now : unit -> int;  (** monotone; the probe's unit *)
    count : phase -> unit;
    observe : phase -> int -> unit;  (** duration in [now]'s unit *)
  }

  val null_probe : probe

  val install : probe -> unit
  (** Install and arm.  Replaces any previously installed probe. *)

  val uninstall : unit -> unit
  (** Disarm: back to the one-flag-read fast path. *)

  val is_armed : unit -> bool

  val phase_label : phase -> string
  (** ["begin"], ["read"], ["lock-acquire"], ["validate"],
      ["publish"], ["commit"], ["abort"]. *)
end

(** Blame attribution seam — who aborted (or is impeding) whom.

    Fourth user of the null-by-default discipline of {!Trace}, {!Chaos}
    and {!Tel}: while no sink is installed every abort/steal/wait
    decision site in the cores costs a single atomic flag read, and the
    per-t-variable ownership words the attribution relies on are never
    written.  Arming therefore changes what is {e recorded}, never what
    the algorithms {e decide}.

    An installed sink sees one {!event} per blame-worthy decision —
    victim slot, aggressor slot, t-variable id, {!cause} — and one
    [on_progress] tick per successful commit (the progress watermark
    feed).  Which causes a core can emit is {!Algo.blame_causes}:

    - TL2 blames the last committed writer / current lock holder of the
      conflicting t-variable ([Read_conflict], [Lock_busy],
      [Validation]);
    - DSTM emits [Stolen] from the {e aggressor}'s domain at a
      successful ownership steal (victim = the installing slot recorded
      in the locator) and [Validation] at read-set revalidation
      failures;
    - the global-lock serializer and NOrec emit [Wait_budget] when a
      spin behind their single lock exhausts its budget, blaming the
      slot that last acquired it; NOrec also emits [Validation].

    Identity is the {e plan slot} (0..domains-1) bound with
    {!set_self} by the harness that owns the run (the chaos runner
    binds its workers); unslotted domains report -1.  One live
    transaction per slot makes slot = transaction for attribution.
    Sinks run on the emitting domain and must be domain-safe and
    non-blocking; [tm_telemetry]'s [Blame_graph] is the intended
    implementation. *)
module Blame : sig
  type cause = Stm_core.Blame.cause =
    | Read_conflict  (** TL2: read saw a locked or too-new t-variable *)
    | Lock_busy  (** TL2: commit-time write-set lock acquisition lost *)
    | Validation  (** read-set (re)validation failed *)
    | Stolen  (** DSTM: ownership stolen — victim's commit is doomed *)
    | Wait_budget  (** spin budget exhausted behind a serialized lock *)

  type event = Stm_core.Blame.event = {
    b_victim : int;  (** slot whose attempt is impeded (-1 unknown) *)
    b_aggressor : int;  (** slot held responsible (-1 unknown) *)
    b_tvar : int;  (** t-variable id the conflict was on (-1 none) *)
    b_cause : cause;
  }

  type sink = Stm_core.Blame.sink = {
    on_event : event -> unit;
    on_progress : int -> unit;  (** a commit by the given slot *)
  }

  val null_sink : sink

  val install : sink -> unit
  (** Install and arm.  Replaces any previously installed sink. *)

  val uninstall : unit -> unit
  (** Disarm: back to the one-flag-read fast path. *)

  val is_armed : unit -> bool

  val cause_label : cause -> string
  (** ["read-conflict"], ["lock-busy"], ["validation"], ["stolen"],
      ["wait-budget"]. *)

  val causes : cause list
  (** Every cause, in label order — the stable axis of exported
      histograms. *)

  val set_self : int -> unit
  (** Bind the calling domain's plan slot (its blame identity). *)

  val self : unit -> int
end
