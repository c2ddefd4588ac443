(** Instrumenting the real STM: an {!Tm_stm.Stm.Obs} subscriber feeding
    the registry.

    Registers [tm_stm_begins_total] / [tm_stm_reads_total] /
    [tm_stm_commits_total] / [tm_stm_aborts_total] counters and
    nanosecond phase-latency histograms [tm_stm_lock_acquire_ns] /
    [tm_stm_validate_ns] / [tm_stm_publish_ns] / [tm_stm_commit_ns] /
    [tm_stm_abort_ns].  A timed phase runs from its site ([Lock],
    [Validate], [Publish]) to the attempt's next commit site of another
    kind; a [Lock] reached in the body (global-lock, DSTM) runs to its
    [Owned].  Commit and abort latencies run from [Begin].  While nothing is
    subscribed the STM hot path pays one atomic flag read per site;
    subscribed, each site is a few sharded atomic RMWs plus at most one
    monotonic clock read. *)

type t = {
  begins : Instrument.counter;
  reads : Instrument.counter;
  commits : Instrument.counter;
  aborts : Instrument.counter;
  lock_ns : Instrument.histogram;
  validate_ns : Instrument.histogram;
  publish_ns : Instrument.histogram;
  commit_ns : Instrument.histogram;
  abort_ns : Instrument.histogram;
}

val ns_clock : unit -> int
(** CLOCK_MONOTONIC in nanoseconds (bechamel's stubs). *)

val register : Registry.t -> t
(** Register the instruments without arming the probe. *)

val subscriber : ?clock:(unit -> int) -> t -> Tm_stm.Stm.Obs.subscriber
(** The subscriber feeding [t]; [clock] defaults to {!ns_clock}. *)

val install : ?clock:(unit -> int) -> Registry.t -> t * Tm_stm.Stm.Obs.handle
(** {!register} + {!Tm_stm.Stm.Obs.subscribe}; unsubscribe the handle
    to disarm. *)
