(** Pluggable trace sinks.

    Instrumented code never formats or stores events itself; it hands each
    event to a sink.  A {!collector} accumulates everything in order (the
    simulator's recorder — unbounded, use on bounded runs). *)

type t = { emit : Trace_event.t -> unit }

(** {2 Collector} *)

type collector
(** An unbounded in-order accumulator. *)

val collector : unit -> collector
val collector_sink : collector -> t

val collected : collector -> Trace_event.t list
(** Events in emission order. *)
