(** Publishing sweep results into a registry.

    Post-hoc and in canonical grid order — one scrape per run with the
    run index as timestamp — never live from the pool's worker domains,
    so the published series inherits the sweep engine's byte-level
    determinism for every [--jobs] value.  Registers cumulative
    [tm_sweep_*_total] counters and [tm_sweep_commit_latency_events] /
    [tm_sweep_retry_depth] log2 histograms, all read from the running
    total ({!Tm_sim.Metrics.merge}) of the runs published so far. *)

type t

val create : ?consumers:(Registry.snapshot -> unit) list -> Registry.t -> t

val publish_all : t -> Tm_sim.Sweep.result list -> Registry.snapshot option
(** Accumulates each result's metrics and scrapes at [ts] = its list
    index; returns the last snapshot (None for an empty sweep). *)
