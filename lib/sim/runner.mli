open Tm_history

(** The simulation runner: drives transaction programs against a TM
    instance under an adversarial scheduler with fault injection, and
    records the resulting history and its {!Metrics.t}.

    Each simulation step gives one process one micro-step: either its
    program emits the next invocation, or the TM is polled on its pending
    one.  A process whose fate is [Crash_at t] is never scheduled from step
    [t] on (the paper's crash: its projection becomes finite, and whatever
    its in-flight operation holds stays held).  A process with
    [Parasitic_from t] switches at step [t] to issuing operations from the
    parasite workload (two random writes per transaction,
    {!Workload.write_only}) forever, never invoking [tryC] (the paper's
    parasitic process — as long as the TM never aborts it).

    {b Cost model.}  A tick does O(1) work in the runner, and allocates
    only the event it records ({!metrics} records none):
    - each fate is read once, into per-process arrays (crash tick,
      parasitic onset, crash-after-write count, crash-mid-commit count);
    - the scheduler indexes an increasing array of the live processes.
      It is rebuilt, in O([nprocs]), only on a tick where a [Crash_at]
      tick passes or after a crash has landed mid-run;
    - the history is a list consed latest-first, made a {!History.t}
      once, at the end;
    - the invariant events [Inv (p, Read x)], [Inv (p, Try_commit)] and
      [Res (p, Ok_written | Committed | Aborted)] come from tables built
      per run (O([nprocs] × [ntvars]) words), so the events of
      [outcome.history] may be physically shared within a run: compare
      them structurally ({!Event.equal}), never with [==].  Only
      [Value v] responses and [Write (x, v)] invocations are allocated per
      event;
    - the run's {!Metrics.t} is tallied as each event is recorded, into
      O([nprocs] + [steps] / 4) words allocated per run: the last
      quarter's (process, kind) codes are kept in a ring until the run
      ends.
    The TM's [pending]/[poll] and the workload's bodies (one list per
    transaction) allocate on their own account.  test_sim gates the sum
    on a global-lock sweep row at 10 words per step, and {!metrics} over
    the zoo's 1,000-step sweep grid at 16 words per step. *)

type fate =
  | Healthy
  | Crash_at of int  (** never scheduled from step [t] on *)
  | Parasitic_from of int
      (** from step [t] on, issues parasite-workload operations forever and
          never invokes [tryC] *)
  | Crash_after_write of int
      (** crashes upon receiving its [n]-th [ok] response (1-based) — i.e.
          mid-transaction, after a write; under encounter-time locking the
          lock dies with it *)
  | Crash_mid_commit of int
      (** crashes once its pending [tryC] has been polled [n] times without
          an answer — inside a multi-poll commit procedure ([n = 0] crashes
          immediately after invoking [tryC]) *)

type sched =
  | Round_robin
  | Uniform  (** uniformly random among alive processes *)
  | Quantum of int  (** stay on one process for [q] steps, round-robin *)

type spec = {
  nprocs : int;
  ntvars : int;
  steps : int;
  seed : int;
  sched : sched;
  workload : Workload.t;  (** default transaction bodies *)
  workload_overrides : (Event.proc * Workload.t) list;
      (** per-process overrides of [workload] *)
  fates : (Event.proc * fate) list;  (** unlisted processes are healthy *)
}

val spec :
  ?ntvars:int ->
  ?steps:int ->
  ?seed:int ->
  ?sched:sched ->
  ?workload:Workload.t ->
  ?workload_overrides:(Event.proc * Workload.t) list ->
  ?fates:(Event.proc * fate) list ->
  nprocs:int ->
  unit ->
  spec
(** Defaults: 4 t-variables, 1000 steps, seed 0, round-robin, counter
    workload, all processes healthy. *)

type outcome = {
  history : History.t;
  commits : int array;  (** per process, index 1..nprocs *)
  aborts : int array;
  invocations : int array;
  defers : int array;  (** polls that returned no response *)
  final_defer_streak : int array;
      (** consecutive unanswered polls at the end of the run — a large
          value on an alive process indicates it is blocked *)
  steps_taken : int;
  metrics : Metrics.t;  (** tallied as the events were recorded *)
}

val run :
  ?trace:Tm_trace.Sink.t ->
  Tm_impl.Registry.entry ->
  spec ->
  outcome
(** Runs the simulation.  With [?trace], structured trace events are
    streamed into the sink as the run unfolds: per-process transaction and
    tryC spans, fault instants (crashes, parasitic turns), and per-process
    defer counters.  Event timestamps are history-event indexes — the
    deterministic step clock — so traces of a seeded run are bit-for-bit
    reproducible.  A telemetry publisher ({!Tm_telemetry.Sim_pub})
    reads the finished history on the same step clock. *)

val metrics : Tm_impl.Registry.entry -> spec -> Metrics.t
(** [(run entry spec).metrics], by the same loop, but builds no history:
    events are tallied, never made, so only the invocations handed to the
    TM and its responses are allocated.  The untraced sweep runs here. *)

val total : int array -> int
val commit_total : outcome -> int
val abort_total : outcome -> int

val throughput : outcome -> float
(** Committed transactions per simulation step. *)

val blocked_procs : outcome -> Event.proc list
(** Alive processes whose final defer streak exceeds 50. *)

val pp_summary : Format.formatter -> outcome -> unit
