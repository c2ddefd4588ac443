(* Publishing sweep results into a registry.

   Results are published post-hoc, one scrape per run, in canonical
   grid order with the run index as timestamp — never live from the
   pool's worker domains, which would make the time series depend on
   scheduling.  Byte-identical output for every --jobs value follows
   from the sweep engine's own determinism guarantee (equal result
   lists in canonical order).  The registered metrics read a running
   total of the published runs' metrics, whose histograms are log2
   ones that [Metrics.merge] folds each run's into. *)

module Sweep = Tm_sim.Sweep
module Metrics = Tm_sim.Metrics
module Hist = Tm_sim.Hist

type t = {
  reg : Registry.t;
  consumers : (Registry.snapshot -> unit) list;
  mutable runs : int;
  mutable total : Metrics.t;
}

let zero =
  let h () = Hist.create Hist.log2 in
  {
    Metrics.commits = 0;
    aborts = 0;
    invocations = 0;
    defers = 0;
    faults = 0;
    starvations = 0;
    steps = 0;
    events = 0;
    throughput = 0.0;
    abort_causes = { on_read = 0; on_write = 0; on_commit = 0 };
    retry_depth = h ();
    commit_latency = h ();
    abort_latency = h ();
  }

let create ?(consumers = []) reg =
  let t = { reg; consumers; runs = 0; total = zero } in
  let c name help read = Registry.counter reg ~help name (fun () -> read t) in
  let total f t = f t.total in
  (* [Metrics.merge] makes fresh histograms, so the snapshot can keep
     the total's.  The series keep their published order. *)
  Registry.histogram reg
    ~help:"Consecutive aborts before each commit (merged over runs)"
    "tm_sweep_retry_depth" (fun () -> t.total.retry_depth);
  Registry.histogram reg
    ~help:"Commit latency in history events (merged over runs)"
    "tm_sweep_commit_latency_events" (fun () -> t.total.commit_latency);
  c "tm_sweep_steps_total" "Simulation steps, all runs"
    (total (fun m -> m.steps));
  c "tm_sweep_events_total" "History events, all runs"
    (total (fun m -> m.events));
  c "tm_sweep_starvations_total"
    "Processes looking starving (empirical window reading)"
    (total (fun m -> m.starvations));
  c "tm_sweep_faults_total"
    "Processes looking crashed or parasitic (empirical window reading)"
    (total (fun m -> m.faults));
  c "tm_sweep_defers_total" "Deferred polls, all runs"
    (total (fun m -> m.defers));
  c "tm_sweep_invocations_total" "Invocations, all runs"
    (total (fun m -> m.invocations));
  c "tm_sweep_aborts_total" "Aborted transactions, all runs"
    (total (fun m -> m.aborts));
  c "tm_sweep_commits_total" "Committed transactions, all runs"
    (total (fun m -> m.commits));
  c "tm_sweep_runs_total" "Sweep runs published" (fun t -> t.runs);
  t

let publish t ~index (r : Sweep.result) =
  t.runs <- t.runs + 1;
  t.total <- Metrics.merge t.total r.Sweep.r_metrics;
  let snap = Registry.scrape t.reg ~ts:index in
  List.iter (fun f -> f snap) t.consumers;
  snap

let publish_all t results =
  let last = ref None in
  List.iteri (fun index r -> last := Some (publish t ~index r)) results;
  !last
