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

(* ---- histograms ----

   The bucket rule is [Tm_sim.Hist]'s; a histogram keeps one atomic
   per bucket per shard in its layout, and a snapshot sums the shards
   into a plain [Tm_sim.Hist.t].  The count is the sum of the buckets,
   so an observation pays no RMW for it. *)

module Hist = Tm_sim.Hist

let hires_bucket_upper = Hist.bucket_upper Hist.hires

type hshard = { hb : int Atomic.t array; hs : int Atomic.t; hm : int Atomic.t }

type histogram = {
  h_layout : Hist.layout;
  h_shards : hshard array;
  h_mask : int;
}

let histogram ?(shards = default_shards) ?(layout = Hist.log2) () =
  let shards = next_pow2 (max 1 shards) in
  let n = Hist.nbuckets layout in
  {
    h_layout = layout;
    h_shards =
      Array.init shards (fun _ ->
          {
            hb = Array.init n (fun _ -> Atomic.make 0);
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
  ignore (Atomic.fetch_and_add s.hb.(Hist.bucket_of h.h_layout v) 1);
  if v > 0 then ignore (Atomic.fetch_and_add s.hs v);
  bump_max s.hm v

type hsnap = Hist.t = {
  layout : Hist.layout;
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable max_sample : int;
}

let hist_snapshot h =
  let snap = Hist.create h.h_layout in
  Array.iter
    (fun s ->
      Array.iteri
        (fun k a ->
          let c = Atomic.get a in
          snap.buckets.(k) <- snap.buckets.(k) + c;
          snap.count <- snap.count + c)
        s.hb;
      snap.sum <- snap.sum + Atomic.get s.hs;
      snap.max_sample <- max snap.max_sample (Atomic.get s.hm))
    h.h_shards;
  snap
