(** Execute a fault plan on real domains and classify what happened.

    [run] spawns one worker domain per plan slot, each running a
    {!workload}: the shared hot set of t-variables ({!hot_set}), or the
    serving path's request stream ([Tm_serve.Server.chaos_workload]).
    It installs the plan as an [Stm.Obs] subscriber and lets a watchdog
    on the spawning domain take two samples of each worker's monotone
    counters.  The deltas go through
    {!Tm_liveness.Empirical.classify_counters}, yielding one Figure-2
    verdict per domain, which is compared against the plan's
    expectation.  The worker loop, the parasite takeover, the crash
    gate, the instruments and the watchdog window exist once, here, so
    every fix to the window (the onset and witness waits below) holds
    for every workload.

    The run's trace ({!outcome.events}) is the {e planned} fault
    schedule ({!Plan.trace_events}) followed by one verdict instant per
    domain — not the raw interleaving, which a real multicore run cannot
    make deterministic.  For a fixed (scenario, seed, domains) the fault
    schedule is byte-identical by construction and the verdicts are the
    empirically stable classification the scenario gates on, so equal
    runs export equal traces. *)

type sample = {
  ops : int;
  trycs : int;
  commits : int;
  aborts : int;
  causes : (Tm_stm.Stm.Obs.cause * int) list;
}
(** A watchdog snapshot of one domain's monotone counters.  [ops] counts
    fault sites reached, [trycs] transaction bodies that reached
    [tryC], [aborts] is attempts minus commits, [causes] the
    [Stm.Obs.Conflict] sites charged to the domain, by cause in
    [Stm.Obs.causes] order: those it reported, except that a steal is
    charged to the victim it names, not to the stealer.  The cause
    counts are kept out of the session registry. *)

type session
(** A live chaos run: worker domains spawned, faults armed, counters
    flowing.  The per-domain counters are telemetry instruments
    ([tm_chaos_ops_total], [tm_chaos_attempts_total],
    [tm_chaos_trycs_total], [tm_chaos_commits_total],
    [tm_chaos_injected_total], each labelled [domain="d"], plus a
    [tm_chaos_crashed] gauge) registered in the session's registry, with
    a {!Tm_telemetry.Liveness_gauge} classifying each domain between
    scrapes. *)

val session_liveness : session -> Tm_telemetry.Liveness_gauge.t

val session_blame : session -> Tm_telemetry.Blame_graph.t option
(** The blame graph folding [Stm.Obs] conflicts, when the session was
    opened with [~blame:true]. *)

val session_latency : session -> Tm_telemetry.Latency_recorder.t option
(** The open-loop latency recorder, when the session was opened with
    [~latency:true]. *)

(** {2 Workloads} *)

type worker = {
  next : unit -> unit;
      (** Choose the next transaction, outside any transaction. *)
  body : (unit -> unit) -> unit;
      (** Run the chosen transaction's body; it is the body of an
          [Stm.atomically] and re-runs on every attempt.  It calls its
          argument, the parasitic takeover point, once after its reads
          and before its writes: under the global-lock serializer a
          parasite past its onset never returns from it. *)
}

type workload = Plan.t -> int -> worker
(** What each worker domain runs.  [with_session] applies it to the
    plan once, after it has selected the plan's core (so the workload's
    t-variables belong to that core), then to each domain index.  Every
    transaction of every domain should conflict with every other
    domain's, so that a crashed lock holder strands the whole peer set
    as the plan's expectations describe. *)

val hot_set : tvars:int -> workload
(** [tvars] shared t-variables (at least 2); every transaction
    increments t-variable 0 and one other drawn per domain. *)

val with_session :
  ?blame:bool ->
  ?latency:bool ->
  ?registry:Tm_telemetry.Registry.t ->
  workload:workload ->
  Plan.t ->
  (session -> 'a) ->
  'a
(** [with_session ~workload plan f] selects the plan's STM core
    ([plan.algo], restored after the workers are joined), subscribes the
    plan's fault handler, spawns one worker domain per plan slot running
    [workload] and applies [f] to the live session; on return (or
    exception) it stops and joins the workers and unsubscribes the
    handler.  When the plan combines a crasher with a parasite (the
    mixed scenario) the parasite's onset additionally waits for the
    crasher to have died, so the faults land in the causal order the
    expectations describe.  [registry] is where the session registers
    its instruments (default: a fresh private one) — pass a shared
    registry to co-locate chaos counters with e.g.
    {!Tm_telemetry.Stm_probe}
    phase metrics in one scrape.

    [blame] (default false) additionally registers a
    {!Tm_telemetry.Blame_graph} in the session registry and subscribes
    it for the session's duration, so
    every abort/steal/wait decision is attributed (workers bind their
    plan slot as blame identity either way).

    [latency] (default false) additionally registers a
    {!Tm_telemetry.Latency_recorder} under [tm_chaos_lat] in the session
    registry; workers mark each transaction in flight before starting it
    and complete it after the commit — a worker that dies on
    [Stm.Obs.Crashed] leaves its last mark in place, so the dead
    domain's starvation age and the open-loop (censored) quantiles keep
    growing while the closed-loop ones freeze. *)

val await_onsets : session -> bool
(** Wait, for at most 2 s, until every fault's onset has landed: each
    crasher has died and each parasite has taken over, that is, entered
    its spin.  A parasite whose op clock passes its onset inside a
    transaction takes over only once that transaction is done, so its
    onset lands then, not at the op count.  [run]'s warm-up ends with
    this wait.  Returns whether every onset landed. *)

type report = {
  rep_domain : int;
  rep_fault : Plan.fault;
  rep_expected : Tm_liveness.Process_class.cls;
  rep_observed : Tm_liveness.Process_class.cls;
  rep_first : sample;  (** window-start snapshot *)
  rep_last : sample;  (** window-end snapshot *)
  rep_crashed : bool;  (** the worker died on [Stm.Obs.Crashed] *)
}

val report_ok : report -> bool
(** Observed class equals the expected one. *)

type outcome = {
  o_plan : Plan.t;
  o_reports : report list;  (** one per domain, ascending *)
  o_ok : bool;  (** every report is ok *)
  o_events : Tm_trace.Trace_event.t list;
      (** planned fault instants, then verdict instants ([Monitor] /
          ["chaos-verdict"], [ts] = {!Plan.horizon}, [tid] = domain),
          then — with blame on — evidence instants ([Monitor] /
          ["blame-evidence"], same [ts], args [evidence]/[shape]/[algo]
          from {!Tm_telemetry.Blame_graph.classify}) *)
  o_blame : Tm_telemetry.Blame_graph.t option;
      (** the session's blame graph, final once [run] returns *)
}

val run :
  ?blame:bool ->
  ?latency:bool ->
  ?warmup:float ->
  ?window:float ->
  ?registry:Tm_telemetry.Registry.t ->
  ?on_sample:(Tm_telemetry.Registry.snapshot -> unit) ->
  workload:workload ->
  Plan.t ->
  outcome
(** [run ~workload plan] executes the plan and classifies every domain.
    [warmup] is the settle time in seconds before the first sample
    (default 0.05 — fault onsets are a few hundred operations in, i.e.
    microseconds, so the window observes the steady faulty state; the
    warm-up is extended by up to 2 s until every crash and parasitic
    onset has landed), [window] the observation time between samples
    (default 0.15).  With [blame] armed, the graph counts from the first
    sample ({!Tm_telemetry.Blame_graph.mark}), and the workers also run
    on after the window, by up to 2 s, until every domain the window
    classified starving has {!Tm_telemetry.Blame_graph.min_events}
    witnessed blame events, so a victim short of CPU is attributed
    rather than read as quiet.  The window and both waits are the same
    for every workload: the hot set and the serving path are classified
    by this one window.  The subscribers are removed before returning,
    even on exceptions.

    [registry] and [on_sample] expose the run's telemetry: the watchdog
    scrapes the session registry right after each of its two samples
    (snapshot timestamps 0 and 1) and hands the snapshots to
    [on_sample].  The liveness gauge is rebased on the first watchdog
    sample and updated with the second, so the [tm_liveness_class]
    stateset in the final scrape byte-agrees with the verdicts in the
    returned reports.

    Note: after a crash-holding-locks run the workload's t-variables
    stay locked forever by the dead domain — they are private to the
    run and simply dropped.  Core-global lock state stranded by a crash (the
    global-lock serializer, NOrec's sequence lock) is instead released
    via [Stm.recover] once the workers are joined, so one crashed run
    cannot starve later runs of the same core in this process. *)

val pp_report : Format.formatter -> report -> unit
(** One line: domain, fault, expected/observed classes, counter deltas,
    the conflict deltas by cause. *)

val pp_table : Format.formatter -> outcome -> unit

val to_json : outcome -> string
(** The verdict document:
    [{"scenario":...,"algo":...,"seed":...,"domains":...,"ok":...,"verdicts":[...]}]
    with stable key order.  Counter fields are informational (real
    multicore counts vary run to run); the classification fields are the
    stable, gateable part. *)
