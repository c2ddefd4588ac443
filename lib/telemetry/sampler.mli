(** The scrape loop: liveness update, registry freeze, consumers.

    A sampler owns no thread; {!tick} is one scrape.  Deterministic pipelines (simulator,
    sweep) call [tick ~ts] on the step clock — no wall time enters the
    snapshot — while live mode lets the default clock stamp frames with
    milliseconds since sampler creation. *)

type consumer = Registry.snapshot -> unit

type t

val create :
  ?liveness:Liveness_gauge.t ->
  ?consumers:consumer list ->
  ?clock:(unit -> int) ->
  Registry.t ->
  t
(** [clock] defaults to wall-clock milliseconds since creation; pass the
    step clock for deterministic output. *)

val tick : ?ts:int -> t -> Registry.snapshot
(** Update the liveness gauge (if any), scrape at [ts] (default: the
    sampler's clock), feed every consumer, return the snapshot. *)

val last : t -> Registry.snapshot option
(** The most recent {!tick} snapshot. *)
