open Tm_history

(** Per-run observability for the simulation runner.

    A {!t} condenses one {!Runner} run into the numbers the sweep engine
    reports and exports: commit/abort counts, the abort-cause
    breakdown (which kind of operation the TM aborted the transaction
    on), the retry-depth distribution (how many consecutive aborts a
    process accumulated before each commit) and latency histograms for
    committed and aborted transactions.

    Latencies are measured in {e history events} between a transaction's
    first invocation and its commit/abort response — a deterministic,
    hardware-independent clock, so metrics (like outcomes) are bit-for-bit
    reproducible from the spec's seed.  Wall-clock time is deliberately
    not part of a metrics value; the sweep engine reports it separately so
    parallel and sequential sweeps produce identical metrics. *)

(** {2 Histograms}

    A run's histograms are {!Hist.sim}-layout {!Hist.t}s: bucket 0
    counts value 0, bucket [k >= 1] counts [\[2^(k-1), 2^k)], and the
    last bucket overflows. *)

val hist_bucket_label : int -> string
(** ["0"], ["1"], ["2-3"], ["4-7"], ..., ["8192+"]. *)

val pp_histogram : Format.formatter -> Hist.t -> unit
(** Text rendering: one line per non-empty bucket ([hist_bucket_label],
    count, a proportional bar), then a count/mean/max summary line.
    Prints ["(empty)"] for an empty histogram. *)

(** {2 Run metrics} *)

type abort_causes = {
  on_read : int;  (** the TM aborted a transaction on a read *)
  on_write : int;
  on_commit : int;  (** validation failed at [tryC] *)
}

type t = {
  commits : int;
  aborts : int;
  invocations : int;
  defers : int;
  faults : int;
      (** processes that look crashed or parasitic over the last quarter
          of the history (the {!Tm_liveness.Empirical} window reading) *)
  starvations : int;
      (** processes active in that window with no commit in it and no
          injected-looking fault — the empirically starving ones *)
  steps : int;
  events : int;  (** history length *)
  throughput : float;  (** commits per simulation step *)
  abort_causes : abort_causes;
  retry_depth : Hist.t;
      (** consecutive aborts accumulated before each commit *)
  commit_latency : Hist.t;
      (** events from first invocation to the commit response *)
  abort_latency : Hist.t;
}

(** {2 Tallying a run}

    The runner tallies a run's metrics as it records each event, so a
    run that keeps no history ({!Runner.metrics}) still has them.  The
    processes are [0 .. nprocs]; every event must name one of them. *)

type tally

val tally : nprocs:int -> capacity:int -> tally
(** Zeroed counters for a run of at most [4 * capacity + 3] events: the
    fault and starvation reading looks at the last [max 1 (events / 4)]
    events, and the tally keeps the newest [capacity] of them. *)

val tally_invocation : tally -> Event.proc -> Event.invocation -> unit
(** Counts the next event, an invocation.  Allocates nothing. *)

val tally_response : tally -> Event.proc -> Event.response -> unit
(** Counts the next event, a response: the abort causes, retry depths
    and latencies are taken here, into the histograms. *)

val of_tally : tally -> defers:int -> steps:int -> t
(** The metrics of the events counted, with the run's unanswered polls
    and simulation steps.  [faults] and [starvations] are read here from
    the window ({!Tm_liveness.Empirical.tally_summaries}); the histograms
    are the tally's own, not copies. *)

val merge : t -> t -> t

val to_json : Buffer.t -> t -> unit
(** Appends the run's metrics as one deterministic JSON object (stable key
    order, no whitespace variation). *)

val pp : Format.formatter -> t -> unit
