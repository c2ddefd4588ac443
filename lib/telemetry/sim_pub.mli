(** Publishing a simulator run into a registry, on the step clock.

    {!publish} folds a finished history: its events drive per-process
    counters ([tm_sim_proc_events_total], [tm_sim_invocations_total],
    [tm_sim_trycs_total], [tm_sim_commits_total],
    [tm_sim_aborts_total], labelled [proc="p"]) plus a global
    [tm_sim_events_total], the liveness gauge classifies each process
    between scrapes, and every 200 events the registry is scraped
    into the consumers with the event index as the snapshot timestamp —
    no wall clock anywhere, so consumer output (e.g. a JSONL time
    series) is byte-identical across equal runs. *)

type t

val create :
  ?consumers:(Registry.snapshot -> unit) list -> nprocs:int -> Registry.t -> t

val publish : t -> Tm_history.History.t -> unit
(** [publish t h] counts the events of [h] in order, each with its
    history index as timestamp, scrapes every 200 events (at indexes
    [0], [200], ...) and once more at [History.length h]. *)
