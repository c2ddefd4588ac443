(** Publishing a simulator run into a registry, on the step clock.

    Plug {!hook} into {!Tm_sim.Runner.run}'s [?on_event]: per-process
    counters ([tm_sim_proc_events_total], [tm_sim_invocations_total],
    [tm_sim_trycs_total], [tm_sim_commits_total],
    [tm_sim_aborts_total], labelled [proc="p"]) plus a global
    [tm_sim_events_total] are driven by the recorded history events,
    the liveness gauge classifies each process between scrapes, and
    every [period] events the registry is scraped into the consumers
    with the event index as the snapshot timestamp — no wall clock
    anywhere, so consumer output (e.g. a JSONL time series) is
    byte-identical across equal runs. *)

type t

val create :
  ?period:int ->
  ?consumers:(Registry.snapshot -> unit) list ->
  nprocs:int ->
  Registry.t ->
  t
(** [period] (default 200) is the scrape interval in history events. *)

val hook : t -> ts:int -> Tm_history.Event.t -> unit
(** Counts one history event and scrapes every [period] events; shaped
    for {!Tm_sim.Runner.run}'s [?on_event]. *)

val finish : t -> ts:int -> Registry.snapshot
(** A final scrape at [ts] (normally the history length), regardless of
    the period. *)
