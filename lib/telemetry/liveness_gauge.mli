(** The Figure-2 class of every domain, as a live metric.

    Each {!update} reads per-domain monotone counters through the
    domain's {!source}, deltas them against the previous update and
    classifies with {!Tm_liveness.Empirical.classify_counters} — the
    chaos watchdog's verdict math applied between consecutive scrapes.
    A domain whose commit counter stalls while its abort counter climbs
    flips to [starving] on the next update; one that stops producing
    operations entirely flips to [crashed].

    Two metrics per domain are registered at {!create}:
    - [<metric>_class{class=...,domain=...}] — a stateset over
      [crashed]/[parasitic]/[starving]/[progressing], exactly the
      classifier's taxonomy;
    - [<metric>_correct{domain=...}] — 1 iff the class is neither
      crashed nor parasitic: the paper's "correct" (Figure 2), which
      deliberately includes starving domains. *)

type source = {
  ops : unit -> int;
  trycs : unit -> int;
  commits : unit -> int;
  aborts : unit -> int;
}
(** Monotone counter readers for one domain. *)

val source :
  ops:(unit -> int) ->
  trycs:(unit -> int) ->
  commits:(unit -> int) ->
  aborts:(unit -> int) ->
  source

val of_counters :
  ops:Instrument.counter ->
  trycs:Instrument.counter ->
  commits:Instrument.counter ->
  aborts:Instrument.counter ->
  source

val states : string array
(** [[| "crashed"; "parasitic"; "starving"; "progressing" |]]. *)

type t

val create :
  ?metric:string ->
  ?label:string ->
  ?ids:int array ->
  Registry.t ->
  sources:source array ->
  t
(** Registers the per-domain class stateset and correct gauge under
    [metric] (default ["tm_liveness"]); source [d] carries label
    [label="ids.(d)"] (defaults: label ["domain"], ids [0..n-1] — the
    simulator publisher uses [~label:"proc" ~ids:[|1..n|]]).  The
    initial class is [progressing] and the first {!update} classifies
    against all-zero counters. *)

val update : t -> Tm_liveness.Process_class.cls array
(** Read the sources, classify the deltas since the previous
    update or {!rebase_with}, set the gauges; returns the classes (aliased, do not
    mutate). *)

val update_with : t -> Tm_liveness.Empirical.counters array -> Tm_liveness.Process_class.cls array
(** Like {!update} but with counters the caller already sampled — used
    when the exported classes must agree exactly with a verdict computed
    from the same samples. *)

val rebase_with : t -> Tm_liveness.Empirical.counters array -> unit

val current : t -> Tm_liveness.Process_class.cls array
(** Classes from the most recent update (aliased). *)
