(** Cheap, contention-free instruments for multi-domain writers.

    The write paths are wait-free per shard and allocate nothing:
    counters and histograms are sharded over domains (each writer RMWs
    the atomics of the shard picked from its domain id), so concurrent
    domains do not serialize on one cache line; reading an instrument
    sums its shards.  Shard atomics are kept at least a cache line apart
    by stride-allocating the cell array (the OCaml 5 major heap does not
    move blocks, so the spacing is stable).

    A single-writer instrument (e.g. a per-domain counter the owning
    domain alone increments) should use [~shards:1]: one cell, and
    reading it is one atomic load.

    Reading a histogram snapshots it into a plain {!Tm_sim.Hist.t};
    its bucket rule, quantile and printer are {!Tm_sim.Hist}'s for
    every layout. *)

(** {2 Counters} *)

type counter
(** A monotone sharded counter. *)

val counter : ?shards:int -> unit -> counter
val incr : counter -> unit

val value : counter -> int
(** Sum over shards.  Not a linearizable snapshot of concurrent
    increments, but never under-reads a quiesced counter and is always
    monotone for monotone updates. *)

(** {2 Histograms}

    Bucketed by {!Tm_sim.Hist}'s one log2 rule under a layout fixed at
    creation, and read as a {!Tm_sim.Hist.t} snapshot: quantiles, merge
    and printing are {!Tm_sim.Hist}'s, whatever the layout. *)

type histogram

val histogram :
  ?shards:int -> ?layout:Tm_sim.Hist.layout -> unit -> histogram
(** [layout] defaults to {!Tm_sim.Hist.log2}; the open-loop latency
    recorder uses {!Tm_sim.Hist.hires} for its tail quantiles. *)

val observe : histogram -> int -> unit

type hsnap = Tm_sim.Hist.t = {
  layout : Tm_sim.Hist.layout;
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable max_sample : int;
}
(** A point-in-time summation of a histogram's shards. *)

val hist_snapshot : histogram -> hsnap

val hires_bucket_upper : int -> int
(** [Tm_sim.Hist.bucket_upper Tm_sim.Hist.hires]. *)
