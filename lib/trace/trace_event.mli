(** The trace-event model: spans, instants, counters and metadata records,
    tagged with a category, a clock value and a (pid, tid) lane.

    The model deliberately mirrors the Chrome [trace_event] format (the
    input format of Perfetto): a {!Span_begin}/{!Span_end} pair brackets a
    duration on one lane, an {!Instant} marks a point, a {!Counter} samples
    a numeric series, and {!Metadata} names a lane.  {!Export} serializes
    event lists to that format (and back).

    Timestamps are {e logical}: the simulator stamps events with its
    deterministic step clock (the history-event index, see
    {!Tm_sim.Runner}), the multicore STM with a global emission sequence
    number.  Wall-clock time never appears in an event, so simulator traces
    are bit-for-bit reproducible from a seed. *)

(** What subsystem the event belongs to.  One category per instrumented
    concern, so Perfetto's category filter isolates each. *)
type category =
  | Txn  (** transaction-attempt spans, outcomes, [Retry] *)
  | Lock  (** commit-lock acquisition / contention *)
  | Validation  (** read-set validation failures *)
  | Backoff  (** contention backoff waits *)
  | Fault  (** fault injection: crashes, parasitic turns *)
  | Monitor  (** safety-monitor verdicts and commit epochs *)
  | Sched  (** scheduler-level events: defers (poll counts), metadata *)

type arg = Int of int | Str of string

type phase =
  | Span_begin  (** Chrome ["B"]: opens a span on this (pid, tid) lane *)
  | Span_end  (** Chrome ["E"]: closes the innermost open span *)
  | Instant  (** Chrome ["i"], thread-scoped *)
  | Counter of int  (** Chrome ["C"]: a sample of the series [name] *)
  | Metadata  (** Chrome ["M"]: names a process/thread lane *)

type t = {
  ts : int;  (** logical timestamp (step clock / emission sequence) *)
  pid : int;  (** process lane: run index in a grid trace, 0 otherwise *)
  tid : int;  (** thread lane: simulated process or domain id *)
  cat : category;
  name : string;
  phase : phase;
  args : (string * arg) list;
}

val category_label : category -> string
(** ["txn"], ["lock"], ["validation"], ["backoff"], ["fault"],
    ["monitor"], ["sched"]. *)

val category_of_label : string -> category option

val phase_code : phase -> string
(** The Chrome [ph] code: ["B"], ["E"], ["i"], ["C"], ["M"]. *)

(** {2 Constructors}

    Each event is on process lane 0; a grid trace retags a run's lane
    with [{ e with pid }]. *)

val instant :
  ts:int -> tid:int -> category -> string -> (string * arg) list -> t

val counter : ts:int -> tid:int -> category -> string -> int -> t

val span_begin :
  ts:int -> tid:int -> category -> string -> (string * arg) list -> t

val span_end :
  ts:int -> tid:int -> category -> string -> (string * arg) list -> t

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** One-line text form: [ts pid/tid category phase name k=v ...]. *)

(** {2 Finding-friendly accessors}

    Small helpers for analyzers that pattern-match on event streams
    (see [Tm_analysis]), so rule code reads as protocol logic rather than
    association-list plumbing. *)

val arg_str : t -> string -> string option

val tvar : t -> int option
(** The conventional ["tvar"] integer argument (lock and publish events). *)

val by_ts : t list -> t list
(** Stable sort by logical timestamp — the canonical analysis order. *)
