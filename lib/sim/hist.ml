(* The one log2 bucket rule.  A layout (sub_bits s, top decade T) puts
   0 and negatives in bucket 0 and the exact values 1 .. 2^s - 1 in
   buckets 1 .. 2^s - 1; decade m in [s, T) fills the 2^s buckets from
   2^s * (m - s + 1), one per 2^(m - s) values; 2^T and above overflow
   into the last bucket.  With s = 0 this is the plain rule, bucket k
   holding [2^(k-1), 2^k). *)

type layout = { sub_bits : int; top : int }

let sim = { sub_bits = 0; top = 13 }
let log2 = { sub_bits = 0; top = 30 }
let hires = { sub_bits = 3; top = 40 }

let nbuckets l =
  (1 lsl l.sub_bits) + ((l.top - l.sub_bits) lsl l.sub_bits) + 1

(* floor (log2 v) for v >= 1, by halving the search range. *)
let log2_floor v =
  let m = if v lsr 32 <> 0 then 32 else 0 in
  let m = if v lsr (m + 16) <> 0 then m + 16 else m in
  let m = if v lsr (m + 8) <> 0 then m + 8 else m in
  let m = if v lsr (m + 4) <> 0 then m + 4 else m in
  let m = if v lsr (m + 2) <> 0 then m + 2 else m in
  if v lsr (m + 1) <> 0 then m + 1 else m

let bucket_of l v =
  if v <= 0 then 0
  else if v < 1 lsl l.sub_bits then v
  else
    let m = log2_floor v in
    if m >= l.top then nbuckets l - 1
    else ((m - l.sub_bits) lsl l.sub_bits) + (v lsr (m - l.sub_bits))

let bucket_upper l k =
  if k <= 0 then 0
  else if k >= nbuckets l - 1 then max_int
  else if k < 1 lsl l.sub_bits then k
  else
    let m = (k lsr l.sub_bits) + l.sub_bits - 1 in
    let sub = k - ((m - l.sub_bits) lsl l.sub_bits) in
    ((sub + 1) lsl (m - l.sub_bits)) - 1

type t = {
  layout : layout;
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable max_sample : int;
}

let create l =
  {
    layout = l;
    buckets = Array.make (nbuckets l) 0;
    count = 0;
    sum = 0;
    max_sample = 0;
  }

let add h v =
  let k = bucket_of h.layout v in
  h.buckets.(k) <- h.buckets.(k) + 1;
  h.count <- h.count + 1;
  if v > 0 then h.sum <- h.sum + v;
  if v > h.max_sample then h.max_sample <- v

let merge a b =
  let m = { a with buckets = Array.copy a.buckets } in
  Array.iteri
    (fun k c ->
      if c > 0 then begin
        let j = bucket_of a.layout (bucket_upper b.layout k) in
        m.buckets.(j) <- m.buckets.(j) + c
      end)
    b.buckets;
  m.count <- a.count + b.count;
  m.sum <- a.sum + b.sum;
  m.max_sample <- max a.max_sample b.max_sample;
  m

let mean h =
  if h.count = 0 then 0.0 else float_of_int h.sum /. float_of_int h.count

let quantile h q =
  if h.count = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
    let last = Array.length h.buckets - 1 in
    let rec go k cum =
      if k >= last then h.max_sample
      else
        let cum = cum + h.buckets.(k) in
        if cum >= rank then min (bucket_upper h.layout k) h.max_sample
        else go (k + 1) cum
    in
    go 0 0
  end

let pp ppf h =
  if h.count = 0 then Fmt.pf ppf "(empty)"
  else begin
    let q p = quantile h p in
    Fmt.pf ppf "p50 %d  p90 %d  p99 %d  " (q 0.5) (q 0.9) (q 0.99);
    (* Log2 buckets are a factor of 2 wide: a tail quantile read off
       them says nothing the max does not. *)
    if h.layout.sub_bits > 0 then
      Fmt.pf ppf "p99.9 %d  p99.99 %d  " (q 0.999) (q 0.9999);
    Fmt.pf ppf "max %d  (n=%d, mean %.1f)" h.max_sample h.count (mean h)
  end
