(** Snapshot exporters: OpenMetrics/Prometheus text and JSON lines.

    Both are pure functions of a frozen {!Registry.snapshot}, so output
    bytes are deterministic whenever the scraped values are (sample
    order is registration order, label keys are sorted, escaping is
    fixed). *)

val to_openmetrics : Registry.snapshot -> string
(** Prometheus text exposition with OpenMetrics framing: one
    [# HELP]/[# TYPE] pair per metric name (first-registration order),
    counters/gauges as single lines, statesets as one 0/1 line per
    state, histograms as cumulative [_bucket{le="..."}] lines (bucket
    upper bounds, then [+Inf]) plus [_sum]/[_count]; terminated by
    [# EOF].  A histogram's bounds are its own layout's; a sub-bucketed
    layout ({!Tm_sim.Hist.hires}) skips its empty buckets (the
    cumulative series is unchanged by the omission), and both shapes
    round-trip through {!parse_openmetrics}. *)

type series = {
  se_name : string;
  se_labels : (string * string) list;
  se_value : float;
}

val parse_openmetrics : string -> series list
(** A minimal parser for the subset {!to_openmetrics} emits: comment and
    blank lines skipped, one {!series} per sample line.  For round-trip
    tests and scrape post-processing, not a general OpenMetrics
    parser.
    @raise Failure on lines the subset does not cover. *)

val to_jsonl : Registry.snapshot -> string
(** One JSON object (no trailing newline):
    [{"ts":N,"samples":[{"name":...,"labels":{...},"value":N}
    | {...,"state":"starving"}
    | {...,"hist":{"count":..,"sum":..,"max":..,"buckets":[...]}}]}].
    A sub-bucketed layout encodes its (sparse, 305-slot) buckets as
    ["sparse":[[index,count],...]] pairs instead of a dense ["buckets"]
    array.  Under the step clock equal runs produce byte-equal lines. *)
