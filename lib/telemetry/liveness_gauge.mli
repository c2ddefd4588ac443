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

val update : t -> unit
(** Read the sources and classify the deltas since the previous update
    (all-zero counters before the first); the registered metrics read
    these classes from now on. *)

val set : t -> Tm_liveness.Process_class.cls array -> unit
(** [set t classes] makes [classes] (one per source) the classes the
    registered metrics read, e.g. the verdicts a chaos run reports, so
    that a scrape agrees with them by construction.  A later {!update}
    still deltas against the previous update's counters. *)
