(** The serving path: per-domain executors over a {!Store}, driven by a
    deterministic {!Workload} population, with admission control and
    hot-stripe commit batching.

    {2 Determinism discipline}

    A real multicore run cannot make its interleaving deterministic, so
    — exactly like the chaos subsystem — the canonical artifacts carry
    only plan-determined data: which requests exist, which are admitted
    (the virtual bounded queue below is a pure function of each
    domain's request stream), per-kind admitted counts, how many
    mutators committed through the journal, and the conservation
    invariant of the counter plane.  Wall-clock throughput, latency
    quantiles, commit/abort totals and combiner flush counts are real
    measurements and therefore {e informational}: they appear in the
    human summary and in the [BENCH_serve.json] bench §P12 writes where
    it runs (untracked), never in the canonical JSON or the canonical
    telemetry scrape.

    {2 Admission}

    Each executor runs a virtual bounded queue in abstract cost units:
    before each request it drains 12 units, then admits the
    request iff the queued cost stays within [queue_cap], else sheds
    it.  Costs come from {!Workload.cost}.  The model is deterministic
    per domain, so shed counts are part of the canonical output — a
    read-mostly profile sheds nothing, the long-transaction profile is
    the overload regime.

    {2 Batching}

    With batching on, admitted single-key puts go through a per-stripe
    flat combiner: the executor publishes (key, value) in its slot and
    either waits for a combiner to apply it or acquires the stripe's
    combiner lock itself and drains {e all} pending slots into the
    stripe's reused batch, which the stripe's one prebuilt body commits
    as one transaction.  Under a hot Zipfian stripe this turns k
    conflicting one-put transactions into one k-put transaction.
    Neither publishing, waiting nor flushing allocates: a combined put
    costs what an uncombined one does.

    {2 Bookkeeping and publication}

    Each executor domain counts into its own tally of plain fields:
    requests, admitted, shed, batched and mutators, admitted requests by
    kind, and a plain per-kind {!Tm_sim.Hist.log2} latency histogram.
    No atomic is touched per request.  The histogram holds the timed
    requests' service times: every admitted request in the open loop,
    whose recorder stamps each one anyway; in the closed loop, one in 16
    per kind per executor (each kind's 1st, 17th, 33rd, ... admitted
    request), so the other fifteen run with no clock read.  A kind with
    [n] admitted requests on an executor has [(n + 15) / 16] samples
    there.  The worker returns its tally through [Domain.join], which
    orders every write the domain made before [run]'s reads of it, so
    those plain reads are exact.  {!run} keeps the joined tallies where
    its registered [tm_serve_*] counters read them, so a scrape sees
    all zeros at [ts = 0] and the tallies at [ts = total_requests];
    the outcome and the merged latency histograms come from the same
    tallies.  The rule this relies on: nothing scrapes {!run}'s registry
    while the executors run.  [tmlive top --serve] reads the chaos
    runner's instruments, not these.  The combiner's flush counter and
    the open-loop {!Tm_telemetry.Latency_recorder}, whose in-flight ages
    are read live, stay atomic. *)

type config = {
  c_profile : Workload.profile;
  c_algo : Tm_stm.Stm.Algo.t;
  c_seed : int;
  c_domains : int;
  c_clients : int;  (** simulated client population *)
  c_ops : int;  (** closed-loop rounds: requests per client *)
  c_keys : int;
  c_stripes : int;
  c_batching : bool;
  c_journal : bool;
  c_queue_cap : int;  (** admission capacity in cost units *)
  c_arrival : Arrival.t option;
      (** open-loop arrival clock; [None] = closed loop (dispatch as
          fast as the executors run) *)
}

val config :
  ?algo:Tm_stm.Stm.Algo.t ->
  ?clients:int ->
  ?ops:int ->
  ?keys:int ->
  ?stripes:int ->
  ?batching:bool ->
  ?journal:bool ->
  ?queue_cap:int ->
  ?arrival:Arrival.t ->
  profile:Workload.profile ->
  seed:int ->
  domains:int ->
  unit ->
  config
(** Defaults: tl2, 10000 clients, 4 ops/client, 1024 keys, 64 stripes,
    batching on, journal off, queue_cap 2048, closed loop.
    @raise Invalid_argument on [domains < 1], [clients < domains],
    [ops < 1], [keys < 4] or [queue_cap < 1]. *)

val workload : config -> Workload.t
val total_requests : config -> int
(** [clients * ops]. *)

val iter_requests :
  config ->
  Workload.t ->
  domain:int ->
  f:(client:int -> index:int -> Workload.request -> admitted:bool -> unit) ->
  unit
(** The full request stream of one executor domain (clients congruent
    to [domain mod c_domains], round-major) with the admission model's
    verdicts, each request handed over as its {!Workload.view}.  It
    replays the executors' own admission loop. *)

(** {2 The executor}

    What one executor domain serves requests with: an op buffer, one
    transaction body that runs whatever the buffer holds ({!Store.run},
    then a journal mark if the request mutates), and optionally a slot
    in the store's {!combiner}.  The body is built once per domain and
    the combiner's state once per stripe, so serving a request
    allocates nothing of its own, combined or not: all it allocates is
    what the core does for it — under TL2, one write cell per key the
    domain writes for the first time, reused afterwards. *)

type combiner
(** The store's flat combiners, one per stripe, each with one slot per
    executor domain (see Batching above).  A stripe keeps a reused
    array of the slots its lock holder drained, highest slot first,
    and one flush transaction body, built with the combiner, that
    writes that batch and journal-marks its size.  The batch changes
    only under the stripe's combiner lock, so a body re-run after a
    conflict writes the same batch: each put is applied exactly once.
    A combined put allocates only its write-set entry. *)

val combiner : Store.t -> domains:int -> combiner
(** @raise Invalid_argument on [domains < 1]. *)

type executor

val executor : ?combiner:combiner -> ?slot:int -> Store.t -> executor
(** An executor over the store; with [~combiner], its single puts go
    through that combiner in slot [slot] (default 0), which no other
    executor may share.
    @raise Invalid_argument if [slot] is not below the combiner's
    [domains]. *)

val executor_buffer : executor -> Store.buffer

val serve : executor -> bool
(** Serve the buffered request: a single put through the executor's
    combiner, if it has one, anything else as one transaction.  Returns
    whether the put was combined.  The one dispatch, shared by {!run}'s
    executors and the allocation gates. *)

(** {2 Serving a profile} *)

type lat = { l_kind : string; l_snap : Tm_sim.Hist.t }

type per_domain = {
  d_requests : int;
  d_admitted : int;
  d_shed : int;
  d_batched : int;
  d_mutators : int;
}

type outcome = {
  s_config : config;
  (* canonical (plan-determined) *)
  s_requests : int;
  s_admitted : int;
  s_shed : int;
  s_batched : int;  (** admitted single puts routed through combiners *)
  s_mutators : int;  (** admitted mutating requests *)
  s_by_kind : (string * int) list;  (** admitted, in {!Workload.kinds} order *)
  s_per_domain : per_domain array;
  s_journal_ok : bool;  (** journal value = mutators (or journal off) *)
  s_conserved : bool;  (** counter plane of the final store sums to 0 *)
  s_store_hash : int;
      (** {!Store.hash} of the final store ({!Store.dump} after the
          join): a function of the plan at one domain, of the
          interleaving at more.  A hash rather than the values, so an
          outcome stays small when a harness keeps many. *)
  (* informational (measured) *)
  s_wall : float;
  s_commits : int;
  s_aborts : int;
  s_flushes : int;  (** combiner flush transactions *)
  s_latency : lat list;
      (** service time per kind, {!Workload.kinds} order, of the timed
          requests: every admitted request in the open loop, one in 16
          per kind per executor in the closed loop (see Bookkeeping and
          publication) *)
  s_open : Tm_telemetry.Latency_recorder.summary option;
      (** open-loop latency (queueing/service/sojourn from the scheduled
          arrival, censored p99): present iff [c_arrival] was set;
          measured, never canonical *)
}

val run :
  ?on_sample:(Tm_telemetry.Registry.snapshot -> unit) -> config -> outcome
(** Execute the whole population and join.  With [c_arrival] set, each
    executor paces dispatch so no request starts before its scheduled
    arrival on the shared virtual schedule, and an open-loop
    {!Tm_telemetry.Latency_recorder} (registry-free — its samples are
    wall-clock measurements) fills [s_open]; the admission model and
    every canonical count are unchanged, so the canonical artifacts of
    an open-loop run differ from the closed-loop run's only in the
    arrival metadata they echo.  [on_sample] receives the
    canonical telemetry scrape twice, {e keyed on the op clock}: once
    at [ts = 0] before the executors start and once at
    [ts = total_requests config] after they join.  The scraped registry
    holds only deterministic reads ([tm_serve_requests_total],
    [tm_serve_admitted_total], [tm_serve_shed_total],
    [tm_serve_batched_total], [tm_serve_mutators_total] per domain and
    [tm_serve_admitted_kind_total] per kind), so for a fixed
    (profile, seed, domains, algo) the export is byte-deterministic —
    latency histograms are measured and deliberately kept out.  The
    final scrape and the outcome hold the same counts: both come from
    the executors' joined tallies (see Bookkeeping and publication
    above). *)

val to_json : outcome -> string
(** The canonical serve document — configuration and plan-determined
    results only, stable key order, byte-deterministic for a fixed
    (profile, seed, domains, algo, sizing). *)

val pp_summary : Format.formatter -> outcome -> unit
(** The human summary: canonical counts {e plus} the measured
    throughput/latency/abort/flush numbers.  A closed-loop [latency]
    line ends in [sampled 1 in 16]: its [n=] counts the timed requests,
    not the admitted ones. *)

(** {2 Chaos against the serving path}

    Chaos on the serving path is a {!Tm_chaos.Runner.workload}: the
    runner's worker loop, fault dispatch, instruments ([tm_chaos_*]),
    watchdog window and reports, with each worker serving KV requests
    instead of touching the hot set. *)

val chaos_workload : config -> Tm_chaos.Runner.workload
(** One serving executor per plan slot.  The plan's algo and domain
    count override the config's, batching is off, the journal is on and
    [clients] is raised to at least the domain count.  Each executor
    cycles its client rotation forever (a starving domain never
    finishes a fixed quota) and marks the journal on {e every} request:
    the journal makes every request transaction conflict on one
    t-variable (the serving analogue of {!Tm_chaos.Runner.hot_set}'s
    t-variable 0), so a crash holding commit locks strands the whole
    peer set exactly as the per-algorithm Figure-2 expectations in
    {!Tm_chaos.Plan} describe.
    @raise Invalid_argument if the overridden config is invalid. *)

val chaos_run :
  ?on_sample:(Tm_telemetry.Registry.snapshot -> unit) ->
  Tm_chaos.Plan.t ->
  config ->
  Tm_chaos.Runner.outcome
(** {!Tm_chaos.Runner.run} with {!chaos_workload}: the same op-clock
    window as [tmlive chaos]. *)

val pp_chaos_table :
  Workload.profile -> Format.formatter -> Tm_chaos.Runner.outcome -> unit
(** The runner's per-domain reports under a [tmserve chaos] header that
    names the serving profile. *)

val chaos_to_json : Workload.profile -> Tm_chaos.Runner.outcome -> string
(** Canonical verdict document, keyed like the chaos runner's but with
    the serving profile and classification fields only:
    [{"subsystem":"tmserve","scenario":...,"profile":...,...,"verdicts":[...]}]. *)
