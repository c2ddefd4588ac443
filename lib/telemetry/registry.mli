(** A registry of named instruments and point-in-time scrapes.

    Instruments are registered once at setup (under a mutex) and then
    written lock-free on the hot paths; {!scrape} freezes every value
    into an immutable {!snapshot} whose sample order is the registration
    order and whose label lists are sorted by key — so any export of a
    snapshot is deterministic given deterministic instrument values.

    Metric naming follows the Prometheus conventions: counters end in
    [_total], histograms carry their unit as a suffix ([_ns] for
    nanoseconds, [_events] for history events). *)

type t

val create : unit -> t

val counter :
  t ->
  ?shards:int ->
  ?labels:(string * string) list ->
  help:string ->
  string ->
  Instrument.counter

val gauge :
  t ->
  ?labels:(string * string) list ->
  ?init:int ->
  help:string ->
  string ->
  Instrument.gauge

val histogram :
  t ->
  ?shards:int ->
  ?layout:Tm_sim.Hist.layout ->
  ?labels:(string * string) list ->
  help:string ->
  string ->
  Instrument.histogram
(** [layout] as {!Instrument.histogram}; the exporters render a
    histogram under its own layout's bucket bounds. *)

type state
(** A stateset gauge: exactly one of a fixed set of labelled states is
    current; the exporter renders one 0/1 sample per state, the state
    name substituted as the value of the [key] label. *)

val state :
  t ->
  ?labels:(string * string) list ->
  ?init:string ->
  key:string ->
  states:string array ->
  help:string ->
  string ->
  state
(** [state t ~key ~states ~help name] registers a stateset gauge.  The
    initial state is [init] (default: the first of [states]).
    @raise Invalid_argument if [states] is empty or [init] unknown. *)

val set_state : state -> string -> unit
(** @raise Invalid_argument on an unknown state name. *)

(** {2 Scraping} *)

type value =
  | Num of int
  | Hist of Instrument.hsnap  (** under its own layout *)
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
  Instrument.hsnap option
(** A histogram sample's snapshot; {!Tm_sim.Hist.quantile} reads it
    under its own layout. *)

val sample_state :
  snapshot -> name:string -> labels:(string * string) list -> string option
(** The current state name of a stateset sample. *)
