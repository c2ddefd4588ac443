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
    human summary and in [BENCH_serve.json], never in the canonical
    JSON or the canonical telemetry scrape.

    {2 Admission}

    Each executor runs a virtual bounded queue in abstract cost units:
    before each request it drains {!drain_units}, then admits the
    request iff the queued cost stays within [queue_cap], else sheds
    it.  Costs come from {!Workload.cost}.  The model is deterministic
    per domain, so shed counts are part of the canonical output — a
    read-mostly profile sheds nothing, the long-transaction profile is
    the overload regime.

    {2 Batching}

    With batching on, admitted single-key puts go through a per-stripe
    flat combiner: the executor publishes (key, value) in its slot and
    either waits for a combiner to apply it or acquires the stripe's
    combiner lock itself and drains {e all} pending slots into one
    transaction.  Under a hot Zipfian stripe this turns k conflicting
    one-put transactions into one k-put transaction. *)

val drain_units : int
(** Queue units drained per arriving request (12). *)

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

val iter_buffer :
  config ->
  Workload.t ->
  domain:int ->
  Store.buffer ->
  f:(client:int -> index:int -> admitted:bool -> unit) ->
  unit
(** The full request stream of one executor domain (clients congruent
    to [domain mod c_domains], round-major) with the admission model's
    verdicts: each request is {!Workload.fill}ed into the buffer, then
    [f] runs on it.  The one admission loop — the executors run it, and
    {!iter_requests} and the sequential-spec conformance gates replay
    it.  Allocates nothing of its own. *)

val iter_requests :
  config ->
  Workload.t ->
  domain:int ->
  f:(client:int -> index:int -> Workload.request -> admitted:bool -> unit) ->
  unit
(** {!iter_buffer} with each request handed over as its
    {!Workload.view}. *)

(** {2 The executor}

    What one executor domain serves requests with: an op buffer and one
    transaction body that runs whatever the buffer holds ({!Store.run},
    then a journal mark if the request mutates).  The body is built once
    per domain, so serving a request allocates nothing of its own: all
    it allocates is what the core does for it — under TL2, its
    write-set entries, 3 words per first write. *)

type executor

val executor : Store.t -> executor
val executor_buffer : executor -> Store.buffer

val execute : executor -> unit
(** Run the buffered request as one transaction. *)

(** {2 Serving a profile} *)

type lat = { l_kind : string; l_snap : Tm_telemetry.Instrument.hsnap }

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
  s_latency : lat list;  (** per kind, {!Workload.kinds} order *)
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
    holds only deterministic instruments ([tm_serve_requests_total],
    [tm_serve_admitted_total], [tm_serve_shed_total],
    [tm_serve_batched_total], [tm_serve_mutators_total] per domain and
    [tm_serve_admitted_kind_total] per kind), so for a fixed
    (profile, seed, domains, algo) the export is byte-deterministic —
    latency histograms are measured and deliberately kept out. *)

val to_json : outcome -> string
(** The canonical serve document — configuration and plan-determined
    results only, stable key order, byte-deterministic for a fixed
    (profile, seed, domains, algo, sizing). *)

val pp_summary : Format.formatter -> outcome -> unit
(** The human summary: canonical counts {e plus} the measured
    throughput/latency/abort/flush numbers. *)

(** {2 Chaos against the serving path}

    A chaos serve session forces [journal] on and [batching] off: the
    journal makes every request transaction conflict on one t-variable
    (the serving analogue of the chaos runner's hot [shared.(0)]), so a
    crash holding commit locks strands the whole peer set exactly as
    the per-algorithm Figure-2 expectations in {!Tm_chaos.Plan}
    describe.  Fault dispatch reuses {!Tm_chaos.Runner.fault_handler}
    on the per-domain op clock. *)

type session

val session_plan : session -> Tm_chaos.Plan.t
val session_config : session -> config
val session_registry : session -> Tm_telemetry.Registry.t
val session_liveness : session -> Tm_telemetry.Liveness_gauge.t
val session_blame : session -> Tm_telemetry.Blame_graph.t option

val session_latency : session -> Tm_telemetry.Latency_recorder.t option
(** The session's open-loop latency recorder (with [~latency:true]). *)

val session_sample : session -> int -> Tm_chaos.Runner.sample
val session_samples : session -> Tm_chaos.Runner.sample array

val with_chaos_session :
  ?blame:bool ->
  ?latency:bool ->
  ?registry:Tm_telemetry.Registry.t ->
  Tm_chaos.Plan.t ->
  config ->
  (session -> 'a) ->
  'a
(** Spawn one serving executor per plan slot with the plan's faults
    armed (the plan's algo and domain count override the config's;
    batching off, journal on), apply the callback, then stop, join,
    recover and restore — the serving twin of
    {!Tm_chaos.Runner.with_session}.  Executors cycle their client
    rotation indefinitely; per-domain counters register as
    [tm_serve_{ops,attempts,trycs,commits,injected}_total] and a
    [tm_serve_crashed] gauge, plus the standard liveness gauge (and a
    blame graph with [~blame:true]).  With [~latency:true] a
    {!Tm_telemetry.Latency_recorder} registers under [tm_serve_lat] in
    the session registry; executors mark each request in flight before
    its transaction and complete it after — a request whose body dies
    on [Stm.Obs.Crashed] stays marked forever, so the open-loop p99
    and the per-domain starvation age keep growing while the crashed
    domain's closed-loop quantiles freeze. *)

type chaos_outcome = {
  k_plan : Tm_chaos.Plan.t;
  k_profile : Workload.profile;
  k_reports : Tm_chaos.Runner.report list;
  k_ok : bool;
}

val chaos_run :
  ?blame:bool ->
  ?latency:bool ->
  ?warmup:float ->
  ?window:float ->
  ?registry:Tm_telemetry.Registry.t ->
  ?on_sample:(Tm_telemetry.Registry.snapshot -> unit) ->
  Tm_chaos.Plan.t ->
  config ->
  chaos_outcome
(** Watchdog two-sample classification of a chaos serve session, the
    serving twin of {!Tm_chaos.Runner.run}: warmup (default 0.05 s),
    first sample (liveness gauge rebased, scrape at ts 0), window
    (default 0.15 s), second sample (gauge updated, scrape at ts 1),
    then {!Tm_liveness.Empirical.classify_counters} verdicts against
    the plan's expectations. *)

val pp_chaos_table : Format.formatter -> chaos_outcome -> unit

val chaos_to_json : chaos_outcome -> string
(** Canonical verdict document, keyed like the chaos runner's but with
    the serving profile:
    [{"subsystem":"tmserve","scenario":...,"profile":...,...,"verdicts":[...]}]. *)
