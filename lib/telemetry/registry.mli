(** A registry of named metrics and point-in-time scrapes.

    A metric is a name, help text, labels, a kind and a read function:
    its owner registers a read of the state it already keeps, and
    {!scrape} calls every read, in registration order, freezing the
    values into an immutable {!snapshot} whose label lists are sorted by
    key — so any export of a snapshot is deterministic given
    deterministic reads.  Nothing is pushed into the registry and
    nothing needs refreshing before a scrape.

    Registration takes a mutex (it happens at setup time).  A read runs
    on the scraping domain, so it reads what its owner's writers may be
    writing the way they publish it: an {!Instrument} read, an atomic
    load, or plain state its writer no longer touches.

    Metric naming follows the Prometheus conventions: counters end in
    [_total], histograms carry their unit as a suffix ([_ns] for
    nanoseconds, [_events] for history events). *)

type t

val create : unit -> t

val counter :
  t ->
  ?labels:(string * string) list ->
  help:string ->
  string ->
  (unit -> int) ->
  unit
(** [counter t ~help name read] registers a monotone value. *)

val gauge :
  t ->
  ?labels:(string * string) list ->
  help:string ->
  string ->
  (unit -> int) ->
  unit

val histogram :
  t ->
  ?labels:(string * string) list ->
  help:string ->
  string ->
  (unit -> Tm_sim.Hist.t) ->
  unit
(** The read's histogram goes into the snapshot as it is: return a
    fresh one ({!Instrument.hist_snapshot}) or one that nothing writes
    any more.  The exporters render it under its own layout's bucket
    bounds. *)

val state :
  t ->
  ?labels:(string * string) list ->
  key:string ->
  states:string array ->
  help:string ->
  string ->
  (unit -> int) ->
  unit
(** [state t ~key ~states ~help name read] registers a stateset gauge:
    exactly one of [states] is current, the one whose index [read]
    returns.  The exporter renders one 0/1 sample per state, the state
    name substituted as the value of the [key] label.
    @raise Invalid_argument if [states] is empty. *)

(** {2 Scraping} *)

type value =
  | Num of int
  | Hist of Tm_sim.Hist.t  (** under its own layout *)
  | State_of of { states : string array; current : int }

type kind = Counter | Gauge | Histogram | State

type sample = {
  s_name : string;
  s_help : string;
  s_kind : kind;
  s_labels : (string * string) list;  (** sorted by key *)
  s_value : value;
}

type snapshot = { ts : int; samples : sample list }
(** [ts] is in whatever clock the caller samples on: history-event index
    under the step clock, milliseconds since start in live mode. *)

val scrape : t -> ts:int -> snapshot

(** {2 Snapshot lookups}

    For dashboards and tests.  [labels] need not be sorted; for a state
    metric the placeholder state-key label is ignored in the match. *)

val find :
  snapshot -> name:string -> labels:(string * string) list -> sample option

val sample_num :
  snapshot -> name:string -> labels:(string * string) list -> int option

val sample_hist :
  snapshot ->
  name:string ->
  labels:(string * string) list ->
  Tm_sim.Hist.t option
(** A histogram sample; {!Tm_sim.Hist.quantile} reads it under its own
    layout. *)

val sample_state :
  snapshot -> name:string -> labels:(string * string) list -> string option
(** The current state name of a stateset sample. *)
