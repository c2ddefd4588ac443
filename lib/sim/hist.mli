(** Log2 histograms: one bucket rule, one plain histogram, one quantile.

    Every distribution the repository reads a liveness class off — a
    simulated run's retry depth and commit latency, the STM phase
    latencies, the served requests' latencies and the open-loop sojourn
    — is bucketed by the same rule, parameterised by a {!layout}.
    Bucket 0 counts value 0 and negatives.  Values below [2^sub_bits]
    are exact.  Every log2 decade [\[2^m, 2^(m+1))] from
    [m = sub_bits] up to [top - 1] splits into [2^sub_bits] linear
    sub-buckets, so a bucket's upper bound over-reads any of its values
    by at most [1/2^sub_bits].  Values at or above [2^top] land in the
    last bucket, the overflow bucket. *)

type layout = private { sub_bits : int; top : int }

val sim : layout
(** [(0, 13)]: 15 buckets, the overflow bucket holding [8192+]; the
    simulator's history-event latencies and retry depths. *)

val log2 : layout
(** [(0, 30)]: 32 buckets, nanosecond latencies up to about a second. *)

val hires : layout
(** [(3, 40)]: 305 buckets, 8 sub-buckets per decade (at most 12.5%
    wide), overflowing at [2^40] ns (about 18 minutes); tail quantiles
    such as p99.9 and p99.99. *)

val nbuckets : layout -> int

val bucket_of : layout -> int -> int
(** The bucket a value lands in. *)

val bucket_upper : layout -> int -> int
(** Inclusive upper bound of a bucket: 0 for bucket 0, [max_int] for
    the overflow bucket; monotone in the index. *)

type t = {
  layout : layout;
  buckets : int array;  (** [nbuckets layout] counts *)
  mutable count : int;
  mutable sum : int;  (** of the samples, negatives counted as 0 *)
  mutable max_sample : int;  (** 0 for an empty histogram *)
}
(** A plain single-writer histogram; its buckets follow its layout. *)

val create : layout -> t

val add : t -> int -> unit
(** Count one sample.  Allocates nothing. *)

val merge : t -> t -> t
(** [merge a b]: a fresh histogram in [a]'s layout holding the samples
    of both.  A bucket of [b] counts into the bucket of [a]'s layout
    that holds its upper bound, so [b]'s overflow bucket goes to the
    overflow bucket ([max_int]): its samples are only known to exceed
    [b]'s range, and a same-index range bucket would under-read them.
    Exact when every bucket of [b] lies inside one bucket of [a], as a
    {!sim} bucket lies inside a {!log2} one. *)

val mean : t -> float
(** 0.0 for an empty histogram. *)

val quantile : t -> float -> int
(** [quantile h q] for [q] in [0, 1]: the upper bound of the bucket
    holding the rank-[ceil (q * count)] sample, clamped to
    [max_sample], so quantiles are monotone in [q] and never exceed the
    maximum; [max_sample] when that bucket is the overflow bucket, and
    0 for an empty histogram. *)

val pp : Format.formatter -> t -> unit
(** One line: p50/p90/p99, then p99.9/p99.99 where the layout splits
    its decades, max, count and mean; ["(empty)"] when the histogram
    holds no samples. *)
