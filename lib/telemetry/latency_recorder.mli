(** A coordinated-omission-free latency recorder.

    Measures request sojourn time from the *scheduled arrival* (the
    open-loop clock), not from dispatch, splitting queueing delay from
    service time; and keeps a per-domain in-flight slot so censored
    requests — dispatched but not completed, e.g. stuck behind a crashed
    lock holder — are visible to scrapes.  {!open_quantile} folds each
    in-flight request of age [A] back in as the [A / interval] stalled
    arrivals it stands for (synthetic samples [A, A - i, A - 2i, ...]),
    the classic coordinated-omission correction: under a stall the
    open-loop p99 grows with the stall while the closed-loop p99
    (completed samples only) stays flat.

    The write paths ({!mark}, {!complete}, {!abandon}) are wait-free and
    allocation-free; slots are single-writer (one per domain). *)

type t

val now_ns : unit -> int
(** Monotonic wall clock in nanoseconds (never used by canonical
    artifacts — measurement only). *)

val create :
  ?registry:Registry.t ->
  ?metric:string ->
  ?interval_ns:int ->
  domains:int ->
  unit ->
  t
(** [create ~domains ()] makes a recorder with one in-flight slot per
    domain.  [interval_ns] (default 1ms) is the expected inter-arrival
    time used by the coordinated-omission correction.  With [?registry],
    registers under the [metric] prefix (default ["tm_latency"]): hires
    histograms [<m>_queueing_ns], [<m>_service_ns], [<m>_sojourn_ns];
    per-domain gauges [<m>_oldest_inflight_age_ns{domain="d"}]; gauges
    [<m>_open_p99_ns] and [<m>_closed_p99_ns] — the gauges are refreshed
    by {!publish}, typically right before a scrape.
    @raise Invalid_argument if [domains < 1] or [interval_ns < 1]. *)

(** {2 Hot path} *)

val mark : t -> int -> sched:int -> unit
(** [mark t d ~sched] records that domain [d] is now serving the request
    scheduled to arrive at [sched] ns. *)

val complete : t -> int -> start:int -> finish:int -> unit
(** [complete t d ~start ~finish] observes queueing ([start - sched]),
    service ([finish - start]) and sojourn ([finish - sched]) for the
    marked request, then clears the slot.  If no request is marked the
    sojourn degrades to service time ([sched := start]). *)

val abandon : t -> int -> unit
(** Clear domain [d]'s slot without observing (e.g. worker shutdown
    between requests). *)

(** {2 Reading} *)

val ages : t -> now:int -> int array
(** Per-domain age of the in-flight request ([0] when idle): the
    starvation gauge. *)

val oldest_age : t -> now:int -> int

val queueing_snapshot : t -> Instrument.hsnap
val service_snapshot : t -> Instrument.hsnap
val sojourn_snapshot : t -> Instrument.hsnap
(** Hires snapshots — read with {!Instrument.hires_quantile}. *)

val closed_quantile : t -> float -> int
(** Sojourn quantile over completed samples only (the closed-loop view a
    naive recorder reports). *)

val open_quantile : t -> now:int -> float -> int
(** Sojourn quantile with every in-flight request folded in under the
    coordinated-omission correction described above.  Monotone in the
    stall: a request stuck behind a dead lock holder drives this up
    every time it is read. *)

val publish : t -> now:int -> unit
(** Refresh the registry gauges (per-domain starvation ages, open/closed
    p99) from the current state.  No-op on the histogram samples, which
    scrape live.  Without a registry, a no-op. *)

val corroborate : t -> now:int -> progressing:bool array -> bool
(** [corroborate t ~now ~progressing] cross-checks the recorder against
    an external progress verdict (e.g. {!Tm_liveness.Liveness_gauge}):
    every domain reported non-progressing must have an in-flight request
    of positive age.  A domain the gauge calls stalled
    with an empty or fresh slot means the two monitors disagree.
    @raise Invalid_argument if [progressing] length differs from
    [domains]. *)

(** {2 Summaries} *)

type summary = {
  y_queueing : Instrument.hsnap;
  y_service : Instrument.hsnap;
  y_sojourn : Instrument.hsnap;
  y_open_p99 : int;
  y_closed_p99 : int;
  y_oldest_age : int;
}

val summary : t -> now:int -> summary
val pp_summary : Format.formatter -> summary -> unit
