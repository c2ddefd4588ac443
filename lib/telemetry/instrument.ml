(* Contention-free instruments.

   Counters and histograms are sharded: a writer picks a shard from its
   domain id and RMWs only that shard's atomics, so concurrent domains
   do not fight over one location; a scrape sums the shards.  OCaml 5
   has no atomic arrays, so a shard is a boxed [Atomic.t]; to keep two
   shards off one cache line the cell array is over-allocated and only
   every [stride]-th element is used.  The filler atomics are live and
   allocated consecutively with the used ones, and the OCaml 5 major
   heap does not move blocks, so used cells stay [stride] blocks
   (>= one cache line) apart for the life of the instrument. *)

let default_shards = 8
let stride = 8

let next_pow2 n =
  let rec go k = if k >= n then k else go (k * 2) in
  go 1

(* ---- counters ---- *)

type counter = { c_cells : int Atomic.t array; c_mask : int }

let counter ?(shards = default_shards) () =
  let shards = next_pow2 (max 1 shards) in
  {
    c_cells = Array.init (shards * stride) (fun _ -> Atomic.make 0);
    c_mask = shards - 1;
  }

let add c n =
  let s = ((Domain.self () :> int) land c.c_mask) * stride in
  ignore (Atomic.fetch_and_add c.c_cells.(s) n)

let incr c = add c 1

let value c =
  let acc = ref 0 in
  let i = ref 0 in
  let n = Array.length c.c_cells in
  while !i < n do
    acc := !acc + Atomic.get c.c_cells.(!i);
    i := !i + stride
  done;
  !acc

(* ---- gauges ---- *)

type gauge = int Atomic.t

let gauge ?(init = 0) () = Atomic.make init
let set_gauge g v = Atomic.set g v
let gauge_value g = Atomic.get g

(* ---- histograms ----

   Log2 buckets, same rule as [Tm_sim.Metrics]: bucket 0 counts value 0
   (and negatives), bucket [k >= 1] counts [2^(k-1), 2^k), the last
   bucket overflows.  32 buckets cover nanosecond latencies up to
   ~2^30 ns (about a second) before overflowing. *)

let hist_buckets = 32

(* The first bucket from [k] that holds [v].  Top-level, not a local
   closure over [v], so an observation allocates nothing. *)
let rec bucket_from v k =
  if k >= hist_buckets - 1 || v < 1 lsl k then k else bucket_from v (k + 1)

let bucket_of v = if v <= 0 then 0 else bucket_from v 1

let bucket_upper k =
  if k <= 0 then 0
  else if k >= hist_buckets - 1 then max_int
  else (1 lsl k) - 1

type hshard = {
  hb : int Atomic.t array;
  hc : int Atomic.t;
  hs : int Atomic.t;
  hm : int Atomic.t;
}

type histogram = { h_shards : hshard array; h_mask : int }

let histogram ?(shards = default_shards) () =
  let shards = next_pow2 (max 1 shards) in
  {
    h_shards =
      Array.init shards (fun _ ->
          {
            hb = Array.init hist_buckets (fun _ -> Atomic.make 0);
            hc = Atomic.make 0;
            hs = Atomic.make 0;
            hm = Atomic.make 0;
          });
    h_mask = shards - 1;
  }

let rec bump_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then bump_max a v

let observe h v =
  let s = h.h_shards.((Domain.self () :> int) land h.h_mask) in
  ignore (Atomic.fetch_and_add s.hb.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add s.hc 1);
  ignore (Atomic.fetch_and_add s.hs (max 0 v));
  bump_max s.hm v

let absorb h ~buckets ~sum ~max_sample =
  let s = h.h_shards.((Domain.self () :> int) land h.h_mask) in
  let n = Array.length buckets in
  let total = ref 0 in
  for k = 0 to n - 1 do
    if buckets.(k) > 0 then begin
      (* Source bucket [k] has the same [2^(k-1), 2^k) range as ours —
         except the source's own last bucket, which is an overflow
         bucket: its samples are only known to be >= 2^(n-2), so they
         must land in our overflow bucket too, not in the same-index
         range bucket (which would under-read them). *)
      let kb =
        if k = n - 1 && n < hist_buckets then hist_buckets - 1
        else if k < hist_buckets then k
        else hist_buckets - 1
      in
      ignore (Atomic.fetch_and_add s.hb.(kb) buckets.(k));
      total := !total + buckets.(k)
    end
  done;
  ignore (Atomic.fetch_and_add s.hc !total);
  ignore (Atomic.fetch_and_add s.hs (max 0 sum));
  bump_max s.hm max_sample

type hsnap = {
  buckets : int array;
  count : int;
  sum : int;
  max_sample : int;
}

let hist_snapshot h =
  let buckets = Array.make hist_buckets 0 in
  let count = ref 0 and sum = ref 0 and max_sample = ref 0 in
  Array.iter
    (fun s ->
      for k = 0 to hist_buckets - 1 do
        buckets.(k) <- buckets.(k) + Atomic.get s.hb.(k)
      done;
      count := !count + Atomic.get s.hc;
      sum := !sum + Atomic.get s.hs;
      max_sample := max !max_sample (Atomic.get s.hm))
    h.h_shards;
  { buckets; count = !count; sum = !sum; max_sample = !max_sample }

let quantile snap q =
  if snap.count = 0 then 0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int snap.count)) in
    let rank = if rank < 1 then 1 else rank in
    let rec go k cum =
      if k >= hist_buckets - 1 then snap.max_sample
      else
        let cum = cum + snap.buckets.(k) in
        if cum >= rank then min (bucket_upper k) snap.max_sample
        else go (k + 1) cum
    in
    go 0 0
  end

let hsnap_mean snap =
  if snap.count = 0 then 0.0
  else float_of_int snap.sum /. float_of_int snap.count

let pp_hsnap ppf snap =
  if snap.count = 0 then Fmt.pf ppf "(empty)"
  else
    Fmt.pf ppf "p50 %d  p90 %d  p99 %d  max %d  (n=%d, mean %.1f)"
      (quantile snap 0.5) (quantile snap 0.9) (quantile snap 0.99)
      snap.max_sample snap.count (hsnap_mean snap)

(* ---- high-resolution histograms ----

   The log2 buckets above cap the relative quantile error at a factor
   of 2 — fine for p50/p99 dashboards, useless for the p99.9/p99.99
   tail the open-loop latency recorder gates on.  The hires variant
   splits every log2 decade into [hires_sub] linear sub-buckets, so the
   relative error of any reported bound is at most 1/[hires_sub]
   (12.5%), while keeping the same wait-free sharded write path. *)

let hires_sub_bits = 3
let hires_sub = 1 lsl hires_sub_bits

(* Majors [hires_sub_bits .. hires_log_max - 1] carry [hires_sub]
   sub-buckets each; values below [hires_sub] are exact; everything at
   or above [2^hires_log_max] (~18 minutes in ns) overflows. *)
let hires_log_max = 40

let hires_buckets =
  hires_sub + ((hires_log_max - hires_sub_bits) * hires_sub) + 1

let rec log2_from v m = if v lsr (m + 1) = 0 then m else log2_from v (m + 1)
let log2_floor v = log2_from v 0

let hires_bucket_of v =
  if v <= 0 then 0
  else if v < hires_sub then v
  else
    let m = log2_floor v in
    if m >= hires_log_max then hires_buckets - 1
    else (hires_sub * (m - hires_sub_bits)) + (v lsr (m - hires_sub_bits))

let hires_bucket_upper k =
  if k <= 0 then 0
  else if k < hires_sub then k
  else if k >= hires_buckets - 1 then max_int
  else
    let m = (k lsr hires_sub_bits) + hires_sub_bits - 1 in
    let s = k - (hires_sub * (m - hires_sub_bits)) in
    ((s + 1) lsl (m - hires_sub_bits)) - 1

type hires = { r_shards : hshard array; r_mask : int }

let hires ?(shards = default_shards) () =
  let shards = next_pow2 (max 1 shards) in
  {
    r_shards =
      Array.init shards (fun _ ->
          {
            hb = Array.init hires_buckets (fun _ -> Atomic.make 0);
            hc = Atomic.make 0;
            hs = Atomic.make 0;
            hm = Atomic.make 0;
          });
    r_mask = shards - 1;
  }

let hires_observe h v =
  let s = h.r_shards.((Domain.self () :> int) land h.r_mask) in
  ignore (Atomic.fetch_and_add s.hb.(hires_bucket_of v) 1);
  ignore (Atomic.fetch_and_add s.hc 1);
  ignore (Atomic.fetch_and_add s.hs (max 0 v));
  bump_max s.hm v

let hires_snapshot h =
  let buckets = Array.make hires_buckets 0 in
  let count = ref 0 and sum = ref 0 and max_sample = ref 0 in
  Array.iter
    (fun s ->
      for k = 0 to hires_buckets - 1 do
        buckets.(k) <- buckets.(k) + Atomic.get s.hb.(k)
      done;
      count := !count + Atomic.get s.hc;
      sum := !sum + Atomic.get s.hs;
      max_sample := max !max_sample (Atomic.get s.hm))
    h.r_shards;
  { buckets; count = !count; sum = !sum; max_sample = !max_sample }

let hires_quantile snap q =
  if snap.count = 0 then 0
  else begin
    let n = Array.length snap.buckets in
    let rank = int_of_float (ceil (q *. float_of_int snap.count)) in
    let rank = if rank < 1 then 1 else rank in
    let rec go k cum =
      if k >= n - 1 then snap.max_sample
      else
        let cum = cum + snap.buckets.(k) in
        if cum >= rank then min (hires_bucket_upper k) snap.max_sample
        else go (k + 1) cum
    in
    go 0 0
  end

let pp_hires_snap ppf snap =
  if snap.count = 0 then Fmt.pf ppf "(empty)"
  else
    Fmt.pf ppf
      "p50 %d  p90 %d  p99 %d  p99.9 %d  p99.99 %d  max %d  (n=%d, mean %.1f)"
      (hires_quantile snap 0.5) (hires_quantile snap 0.9)
      (hires_quantile snap 0.99)
      (hires_quantile snap 0.999)
      (hires_quantile snap 0.9999)
      snap.max_sample snap.count (hsnap_mean snap)
