(* Tests for the telemetry subsystem: sharded instruments under real
   domains, histogram quantile properties, the OpenMetrics exposition
   round-tripped through its own parser, liveness-gauge class
   transitions, and the byte-determinism of step-clock JSONL export. *)

module I = Tm_telemetry.Instrument
module R = Tm_telemetry.Registry
module E = Tm_telemetry.Export
module L = Tm_telemetry.Liveness_gauge
module H = Tm_sim.Hist

(* ------------------------------------------------------------------ *)
(* Instruments. *)

let test_counter_sharded () =
  let c = I.counter () in
  let n = 25_000 in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to n do
              I.incr c
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "sum over shards" (4 * n) (I.value c)

let test_histogram_sharded () =
  let h = I.histogram () in
  let n = 10_000 in
  let ds =
    List.init 4 (fun k ->
        Domain.spawn (fun () ->
            for i = 1 to n do
              I.observe h ((i mod 1000) + k)
            done))
  in
  List.iter Domain.join ds;
  let s = I.hist_snapshot h in
  Alcotest.(check int) "count sums the shards" (4 * n) s.I.count;
  Alcotest.(check int) "bucket counts sum to count" (4 * n)
    (Array.fold_left ( + ) 0 s.I.buckets);
  Alcotest.(check int) "max survives the merge" 1002 s.I.max_sample

let hist_of_list layout vs =
  let h = H.create layout in
  List.iter (H.add h) vs;
  h

let layouts = [ ("sim", H.sim); ("log2", H.log2); ("hires", H.hires) ]

(* The edges every layout shares, then the ones that make it that
   layout: its bucket count and, per layout, the rule's own shape. *)
let test_bucket_edges (name, l) nbuckets own () =
  let n = H.nbuckets l and check = Alcotest.(check int) in
  check (name ^ ": bucket count") nbuckets n;
  check (name ^ ": 0 in bucket 0") 0 (H.bucket_of l 0);
  check (name ^ ": negatives in bucket 0") 0 (H.bucket_of l (-3));
  check (name ^ ": 1 in bucket 1") 1 (H.bucket_of l 1);
  check (name ^ ": max_int overflows") (n - 1) (H.bucket_of l max_int);
  check (name ^ ": bucket 0 holds only 0") 0 (H.bucket_upper l 0);
  check (name ^ ": overflow bucket is unbounded") max_int
    (H.bucket_upper l (n - 1));
  own ()

(* The sim layout's bounds are the ones Metrics prints. *)
let sim_edges () =
  for k = 0 to H.nbuckets H.sim - 1 do
    let lo = if k = 0 then 0 else H.bucket_upper H.sim (k - 1) + 1 in
    let hi = H.bucket_upper H.sim k in
    let label =
      if k = H.nbuckets H.sim - 1 then Fmt.str "%d+" lo
      else if lo = hi then string_of_int lo
      else Fmt.str "%d-%d" lo hi
    in
    Alcotest.(check string)
      (Fmt.str "sim label %d" k) label
      (Tm_sim.Metrics.hist_bucket_label k);
    Alcotest.(check (pair int int))
      (Fmt.str "sim bucket %d holds its label's ends" k)
      (k, k)
      (H.bucket_of H.sim lo, H.bucket_of H.sim hi)
  done

(* Plain log2: bucket k >= 1 holds [2^(k-1), 2^k). *)
let log2_edges () =
  Alcotest.(check (list int)) "log2 buckets of 2, 3, 4, 2^30 - 1, 2^30"
    [ 2; 2; 3; 30; 31 ]
    (List.map (H.bucket_of H.log2) [ 2; 3; 4; (1 lsl 30) - 1; 1 lsl 30 ])

let hires_edges () =
  Alcotest.(check (pair int int))
    "hires: values below 8 are exact" (7, 7)
    (H.bucket_of H.hires 7, H.bucket_upper H.hires 7)

let edge_cases =
  List.map2
    (fun ((name, _) as layout) (nbuckets, own) ->
      Alcotest.test_case ("bucket edges, " ^ name) `Quick
        (test_bucket_edges layout nbuckets own))
    layouts
    [ (15, sim_edges); (32, log2_edges); (305, hires_edges) ]

(* Samples around every power of two up to 2^45, and small values. *)
let sample_gen =
  QCheck.Gen.(
    oneof
      [
        int_range (-20) 40;
        int_bound 2_000_000;
        map2 (fun e d -> (1 lsl e) + d) (int_bound 45) (int_range (-1) 1);
      ])

(* One property, run once per layout. *)
let prop_layout (name, l) =
  QCheck.Test.make ~count:300
    ~name:
      (name
     ^ " layout: bucket_of and bucket_upper agree and are monotone, \
        quantiles ordered, bounded by max, count conserved")
    QCheck.(
      make ~print:Print.(list int) Gen.(list_size (1 -- 200) sample_gen))
    (fun samples ->
      let n = H.nbuckets l and sub = 1 lsl l.H.sub_bits in
      let upper = H.bucket_upper l in
      let rec monotone k =
        k >= n - 1 || (upper k < upper (k + 1) && monotone (k + 1))
      in
      let placed v =
        let k = H.bucket_of l v in
        0 <= k && k < n
        && max 0 v <= upper k
        && (k = 0 || v > upper (k - 1))
        (* A bucket over-reads its values by at most 1/sub: 12.5% for
           hires, a factor of 2 for the plain layouts. *)
        && (k = n - 1 || v < sub || sub * (upper k - v) <= v)
      in
      let h = hist_of_list l samples in
      let q p = H.quantile h p in
      monotone 0
      && List.for_all placed samples
      && h.count = List.length samples
      && h.sum = List.fold_left (fun a v -> a + max 0 v) 0 samples
      && h.max_sample = List.fold_left max 0 samples
      && Array.length h.buckets = n
      && Array.fold_left ( + ) 0 h.buckets = h.count
      && 0 <= q 0.5
      && q 0.5 <= q 0.9
      && q 0.9 <= q 0.99
      && q 0.99 <= q 0.999
      && q 0.999 <= q 0.9999
      && q 0.9999 <= h.max_sample)

let test_pp_empty () =
  Alcotest.(check string)
    "empty snapshot prints (empty)" "(empty)"
    (Fmt.str "%a" H.pp (I.hist_snapshot (I.histogram ~shards:1 ())))

(* [Sweep_pub] merges each run's 15-bucket Tm_sim.Metrics histograms
   into 32-bucket log2 ones. *)
let test_merge_sim_into_log2 () =
  let s =
    H.merge (H.create H.log2) (hist_of_list H.sim [ 0; 1; 5; 100; 9000 ])
  in
  Alcotest.(check int) "count" 5 s.H.count;
  Alcotest.(check int) "sum" 9106 s.H.sum;
  Alcotest.(check int) "max" 9000 s.H.max_sample

let test_merge_overflow () =
  (* Regression: a sample in the source's overflow bucket is only known
     to be >= 2^(nbuckets - 2); folding it into the same-index
     destination bucket would under-read it by orders of magnitude.  It
     must land in the destination's own overflow bucket. *)
  let src = hist_of_list H.sim [ 20_000; 3 ] in
  let last_sim = H.nbuckets H.sim - 1 in
  Alcotest.(check int) "sample sits in the source overflow bucket" 1
    src.H.buckets.(last_sim);
  let s = H.merge (H.create H.log2) src in
  Alcotest.(check int) "overflow sample lands in our overflow bucket" 1
    s.I.buckets.(H.nbuckets H.log2 - 1);
  Alcotest.(check int) "not in the same-index range bucket" 0
    s.I.buckets.(last_sim);
  Alcotest.(check bool) "tail quantile reads the overflow sample" true
    (H.quantile s 0.99 >= 20_000)

let prop_merge_quantile_monotone =
  QCheck.Test.make ~count:200
    ~name:"merged-histogram quantiles lie between the parts'"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 100) (int_bound 2_000_000))
        (list_of_size Gen.(1 -- 100) (int_bound 2_000_000)))
    (fun (xs, ys) ->
      let hist samples =
        let h = I.histogram ~shards:1 () in
        List.iter (I.observe h) samples;
        I.hist_snapshot h
      in
      let a = hist xs and b = hist ys and m = hist (xs @ ys) in
      let bucket = H.bucket_of H.log2 in
      List.for_all
        (fun p ->
          let qa = H.quantile a p and qb = H.quantile b p in
          let qm = H.quantile m p in
          (* Values are capped by each histogram's own max, so the
             upper bound is exact only at bucket granularity: merging
             never moves a quantile outside the parts' buckets, and
             never below the parts' smaller value. *)
          min qa qb <= qm
          && min (bucket qa) (bucket qb) <= bucket qm
          && bucket qm <= max (bucket qa) (bucket qb)
          && qm = H.quantile (H.merge a b) p)
        [ 0.5; 0.9; 0.99; 0.999 ])

(* ------------------------------------------------------------------ *)
(* The latency recorder. *)

module Lr = Tm_telemetry.Latency_recorder

(* The write paths allocate nothing, whatever bucket a sample lands in:
   minor-heap words over 10,000 observations of growing values. *)
let test_write_paths_allocate_nothing () =
  let n = 10_000 in
  let per f =
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      f (i * i)
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let h = I.histogram () and r = I.histogram ~layout:H.hires () in
  let plain = H.create H.log2 in
  let lr = Lr.create ~domains:1 () in
  let check what w =
    if w > 0.01 then Alcotest.failf "%s: %.2f words per call" what w
  in
  check "observe" (per (fun v -> I.observe h v));
  check "observe, hires layout" (per (fun v -> I.observe r v));
  check "plain add" (per (fun v -> H.add plain v));
  check "recorder mark + complete"
    (per (fun v ->
         Lr.mark lr 0 ~sched:v;
         Lr.complete lr 0 ~start:(v + 1) ~finish:(v + v)))

let test_latency_recorder_split () =
  let r = Lr.create ~domains:2 ~interval_ns:100 () in
  Lr.mark r 0 ~sched:1_000;
  Lr.complete r 0 ~start:1_500 ~finish:2_500;
  Alcotest.(check int) "queueing = start - sched" 500
    (Lr.queueing_snapshot r).I.sum;
  Alcotest.(check int) "service = finish - start" 1_000
    (Lr.service_snapshot r).I.sum;
  Alcotest.(check int) "sojourn = finish - sched" 1_500
    (Lr.sojourn_snapshot r).I.sum;
  (* An unmarked completion degrades to service time. *)
  Lr.complete r 1 ~start:10_000 ~finish:10_100;
  Alcotest.(check int) "unmarked sojourn = service" 1_600
    (Lr.sojourn_snapshot r).I.sum;
  Alcotest.(check (array int)) "both slots idle" [| 0; 0 |]
    (Lr.ages r ~now:50_000)

let test_latency_recorder_open_vs_closed () =
  let r = Lr.create ~domains:2 ~interval_ns:100 () in
  (* Domain 0 completes briskly; domain 1 marks and never completes —
     a request stuck behind a crashed lock holder. *)
  for i = 0 to 9 do
    let sched = i * 1_000 in
    Lr.mark r 0 ~sched;
    Lr.complete r 0 ~start:(sched + 100) ~finish:(sched + 200)
  done;
  Lr.mark r 1 ~sched:0;
  let closed = Lr.closed_quantile r 0.99 in
  Alcotest.(check bool) "closed p99 reads completions only" true
    (closed < 1_000);
  let o1 = Lr.open_quantile r ~now:50_000 0.99 in
  let o2 = Lr.open_quantile r ~now:500_000 0.99 in
  Alcotest.(check bool) "open p99 sees the stall" true (o1 > closed);
  Alcotest.(check bool) "open p99 grows with the stall" true (o2 > o1);
  Alcotest.(check int) "closed p99 stays flat" closed
    (Lr.closed_quantile r 0.99);
  Alcotest.(check int) "starvation age is the stuck slot's" 500_000
    (Lr.oldest_age r ~now:500_000);
  (* Corroboration: the stalled verdict must name the stuck domain. *)
  Alcotest.(check bool) "gauge and recorder agree" true
    (Lr.corroborate r ~now:50_000 ~progressing:[| true; false |]);
  Alcotest.(check bool) "a stalled verdict on an idle slot disagrees"
    false
    (Lr.corroborate r ~now:50_000 ~progressing:[| false; true |]);
  Lr.abandon r 1;
  Alcotest.(check int) "abandon clears the slot" 0
    (Lr.oldest_age r ~now:500_000)

(* ------------------------------------------------------------------ *)
(* OpenMetrics round-trip. *)

let test_openmetrics_roundtrip () =
  let reg = R.create () in
  R.counter reg ~labels:[ ("tm", "tl2") ] ~help:"ops" "tm_test_ops_total"
    (fun () -> 42);
  R.gauge reg ~help:"width" "tm_test_width" (fun () -> 7);
  let h = I.histogram ~shards:1 () in
  R.histogram reg ~help:"latency" "tm_test_lat_ns" (fun () ->
      I.hist_snapshot h);
  R.state reg ~key:"class"
    ~states:[| "idle"; "busy" |]
    ~help:"mode" "tm_test_mode" (fun () -> 1);
  List.iter (I.observe h) [ 1; 2; 3; 1000 ];
  let text = E.to_openmetrics (R.scrape reg ~ts:5) in
  Alcotest.(check bool) "terminated by # EOF" true
    (String.length text >= 6
    && String.sub text (String.length text - 6) 6 = "# EOF\n");
  let series = E.parse_openmetrics text in
  let value name labels =
    match
      List.find_opt
        (fun s -> s.E.se_name = name && s.E.se_labels = labels)
        series
    with
    | Some s -> s.E.se_value
    | None -> Alcotest.failf "series %s not found" name
  in
  Alcotest.(check (float 0.)) "counter" 42. (value "tm_test_ops_total" [ ("tm", "tl2") ]);
  Alcotest.(check (float 0.)) "gauge" 7. (value "tm_test_width" []);
  Alcotest.(check (float 0.)) "hist count" 4. (value "tm_test_lat_ns_count" []);
  Alcotest.(check (float 0.)) "hist sum" 1006. (value "tm_test_lat_ns_sum" []);
  Alcotest.(check (float 0.)) "+Inf bucket is the count" 4.
    (value "tm_test_lat_ns_bucket" [ ("le", "+Inf") ]);
  Alcotest.(check (float 0.)) "current state is 1" 1.
    (value "tm_test_mode" [ ("class", "busy") ]);
  Alcotest.(check (float 0.)) "other state is 0" 0.
    (value "tm_test_mode" [ ("class", "idle") ]);
  (* The cumulative bucket series is monotone. *)
  let buckets =
    List.filter (fun s -> s.E.se_name = "tm_test_lat_ns_bucket") series
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a.E.se_value <= b.E.se_value && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative buckets are monotone" true
    (monotone buckets)

let test_hires_openmetrics_roundtrip () =
  let reg = R.create () in
  let samples = [ 1; 9; 10; 1_000; 1_000_000 ] in
  R.histogram reg ~help:"sojourn" "tm_test_sojourn_ns" (fun () ->
      hist_of_list H.hires samples);
  let text = E.to_openmetrics (R.scrape reg ~ts:0) in
  let check_series series =
    let value name labels =
      match
        List.find_opt
          (fun s -> s.E.se_name = name && s.E.se_labels = labels)
          series
      with
      | Some s -> s.E.se_value
      | None -> Alcotest.failf "series %s not found" name
    in
    Alcotest.(check (float 0.)) "count" 5. (value "tm_test_sojourn_ns_count" []);
    Alcotest.(check (float 0.))
      "sum" 1_001_020.
      (value "tm_test_sojourn_ns_sum" []);
    Alcotest.(check (float 0.)) "+Inf bucket is the count" 5.
      (value "tm_test_sojourn_ns_bucket" [ ("le", "+Inf") ]);
    let buckets =
      List.filter (fun s -> s.E.se_name = "tm_test_sojourn_ns_bucket") series
    in
    (* Empty hires buckets are skipped: five distinct samples plus the
       +Inf line, not 305 lines. *)
    Alcotest.(check int) "one bucket line per occupied bucket" 6
      (List.length buckets);
    let rec monotone = function
      | a :: (b :: _ as rest) -> a.E.se_value <= b.E.se_value && monotone rest
      | _ -> true
    in
    Alcotest.(check bool) "cumulative buckets are monotone" true
      (monotone buckets);
    (* Every sample is at or below its emitted cumulative threshold:
       the le="..." bound of the first bucket covering it. *)
    List.iter
      (fun v ->
        let covered =
          List.exists
            (fun s ->
              match List.assoc_opt "le" s.E.se_labels with
              | Some "+Inf" -> true
              | Some le -> float_of_string le >= float_of_int v
              | None -> false)
            buckets
        in
        Alcotest.(check bool) (Fmt.str "sample %d covered" v) true covered)
      samples
  in
  check_series (E.parse_openmetrics text)

(* The exporters' bytes, pinned: one scrape holding a counter, a
   stateset, a log2 and a hires histogram, and a run histogram merged
   into a log2 one as [Sweep_pub] merges it, with a sample in the sim
   layout's overflow bucket. *)
let golden_openmetrics =
  {|# HELP tm_golden_commits_total Commits
# TYPE tm_golden_commits_total counter
tm_golden_commits_total{tm="tl2"} 42
# HELP tm_golden_class Liveness class
# TYPE tm_golden_class gauge
tm_golden_class{class="progressing",domain="0"} 0
tm_golden_class{class="starving",domain="0"} 1
tm_golden_class{class="crashed",domain="0"} 0
# HELP tm_golden_lock_ns Lock phase
# TYPE tm_golden_lock_ns histogram
tm_golden_lock_ns_bucket{le="0"} 1
tm_golden_lock_ns_bucket{le="1"} 2
tm_golden_lock_ns_bucket{le="3"} 3
tm_golden_lock_ns_bucket{le="7"} 3
tm_golden_lock_ns_bucket{le="15"} 3
tm_golden_lock_ns_bucket{le="31"} 3
tm_golden_lock_ns_bucket{le="63"} 3
tm_golden_lock_ns_bucket{le="127"} 3
tm_golden_lock_ns_bucket{le="255"} 3
tm_golden_lock_ns_bucket{le="511"} 3
tm_golden_lock_ns_bucket{le="1023"} 4
tm_golden_lock_ns_bucket{le="2047"} 4
tm_golden_lock_ns_bucket{le="4095"} 4
tm_golden_lock_ns_bucket{le="8191"} 4
tm_golden_lock_ns_bucket{le="16383"} 4
tm_golden_lock_ns_bucket{le="32767"} 4
tm_golden_lock_ns_bucket{le="65535"} 4
tm_golden_lock_ns_bucket{le="131071"} 5
tm_golden_lock_ns_bucket{le="262143"} 5
tm_golden_lock_ns_bucket{le="524287"} 5
tm_golden_lock_ns_bucket{le="1048575"} 5
tm_golden_lock_ns_bucket{le="2097151"} 5
tm_golden_lock_ns_bucket{le="4194303"} 5
tm_golden_lock_ns_bucket{le="8388607"} 5
tm_golden_lock_ns_bucket{le="16777215"} 5
tm_golden_lock_ns_bucket{le="33554431"} 5
tm_golden_lock_ns_bucket{le="67108863"} 5
tm_golden_lock_ns_bucket{le="134217727"} 5
tm_golden_lock_ns_bucket{le="268435455"} 5
tm_golden_lock_ns_bucket{le="536870911"} 5
tm_golden_lock_ns_bucket{le="1073741823"} 5
tm_golden_lock_ns_bucket{le="+Inf"} 6
tm_golden_lock_ns_sum 2000070904
tm_golden_lock_ns_count 6
# HELP tm_golden_sojourn_ns Sojourn
# TYPE tm_golden_sojourn_ns histogram
tm_golden_sojourn_ns_bucket{le="5"} 1
tm_golden_sojourn_ns_bucket{le="9"} 2
tm_golden_sojourn_ns_bucket{le="1023"} 3
tm_golden_sojourn_ns_bucket{le="1310719"} 4
tm_golden_sojourn_ns_bucket{le="+Inf"} 4
tm_golden_sojourn_ns_sum 1235581
tm_golden_sojourn_ns_count 4
# HELP tm_golden_retry_depth Retry depth
# TYPE tm_golden_retry_depth histogram
tm_golden_retry_depth_bucket{le="0"} 1
tm_golden_retry_depth_bucket{le="1"} 1
tm_golden_retry_depth_bucket{le="3"} 3
tm_golden_retry_depth_bucket{le="7"} 3
tm_golden_retry_depth_bucket{le="15"} 3
tm_golden_retry_depth_bucket{le="31"} 3
tm_golden_retry_depth_bucket{le="63"} 3
tm_golden_retry_depth_bucket{le="127"} 3
tm_golden_retry_depth_bucket{le="255"} 3
tm_golden_retry_depth_bucket{le="511"} 3
tm_golden_retry_depth_bucket{le="1023"} 3
tm_golden_retry_depth_bucket{le="2047"} 3
tm_golden_retry_depth_bucket{le="4095"} 3
tm_golden_retry_depth_bucket{le="8191"} 3
tm_golden_retry_depth_bucket{le="16383"} 3
tm_golden_retry_depth_bucket{le="32767"} 3
tm_golden_retry_depth_bucket{le="65535"} 3
tm_golden_retry_depth_bucket{le="131071"} 3
tm_golden_retry_depth_bucket{le="262143"} 3
tm_golden_retry_depth_bucket{le="524287"} 3
tm_golden_retry_depth_bucket{le="1048575"} 3
tm_golden_retry_depth_bucket{le="2097151"} 3
tm_golden_retry_depth_bucket{le="4194303"} 3
tm_golden_retry_depth_bucket{le="8388607"} 3
tm_golden_retry_depth_bucket{le="16777215"} 3
tm_golden_retry_depth_bucket{le="33554431"} 3
tm_golden_retry_depth_bucket{le="67108863"} 3
tm_golden_retry_depth_bucket{le="134217727"} 3
tm_golden_retry_depth_bucket{le="268435455"} 3
tm_golden_retry_depth_bucket{le="536870911"} 3
tm_golden_retry_depth_bucket{le="1073741823"} 3
tm_golden_retry_depth_bucket{le="+Inf"} 4
tm_golden_retry_depth_sum 20005
tm_golden_retry_depth_count 4
# EOF
|}

let golden_jsonl =
  {|{"ts":3,"samples":[{"name":"tm_golden_commits_total","labels":{"tm":"tl2"},"value":42},{"name":"tm_golden_class","labels":{"domain":"0"},"state":"starving"},{"name":"tm_golden_lock_ns","labels":{},"hist":{"count":6,"sum":2000070904,"max":2000000000,"buckets":[1,1,1,0,0,0,0,0,0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,1]}},{"name":"tm_golden_sojourn_ns","labels":{},"hist":{"count":4,"sum":1235581,"max":1234567,"sparse":[[5,1],[9,1],[63,1],[145,1]]}},{"name":"tm_golden_retry_depth","labels":{},"hist":{"count":4,"sum":20005,"max":20000,"buckets":[1,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]}}]}|}

let test_exporters_golden () =
  let reg = R.create () in
  R.counter reg ~labels:[ ("tm", "tl2") ] ~help:"Commits"
    "tm_golden_commits_total" (fun () -> 42);
  R.state reg ~key:"class"
    ~states:[| "progressing"; "starving"; "crashed" |]
    ~labels:[ ("domain", "0") ] ~help:"Liveness class" "tm_golden_class"
    (fun () -> 1);
  let h = I.histogram ~shards:1 () in
  R.histogram reg ~help:"Lock phase" "tm_golden_lock_ns" (fun () ->
      I.hist_snapshot h);
  R.histogram reg ~help:"Sojourn" "tm_golden_sojourn_ns" (fun () ->
      hist_of_list H.hires [ 5; 9; 1_000; 1_234_567 ]);
  R.histogram reg ~help:"Retry depth" "tm_golden_retry_depth" (fun () ->
      H.merge (H.create H.log2) (hist_of_list H.sim [ 0; 2; 3; 20_000 ]));
  List.iter (I.observe h) [ 0; 1; 3; 900; 70_000; 2_000_000_000 ];
  let snap = R.scrape reg ~ts:3 in
  Alcotest.(check string) "openmetrics bytes" golden_openmetrics
    (E.to_openmetrics snap);
  Alcotest.(check string) "jsonl bytes" golden_jsonl (E.to_jsonl snap)

(* Edge cases of the exposition parser: an exposition of only framing,
   and the writer's label escaping round-tripped. *)

let test_openmetrics_empty_exposition () =
  Alcotest.(check int) "only # EOF parses to no series" 0
    (List.length (E.parse_openmetrics "# EOF\n"))

let test_openmetrics_escaped_labels () =
  let reg = R.create () in
  R.counter reg
    ~labels:[ ("path", "a\\b\"c\nd") ]
    ~help:"escapes" "tm_test_esc_total"
    (fun () -> 3);
  let text = E.to_openmetrics (R.scrape reg ~ts:0) in
  let check_series series =
    match
      List.find_opt (fun s -> s.E.se_name = "tm_test_esc_total") series
    with
    | None -> Alcotest.fail "escaped series not found"
    | Some s ->
        Alcotest.(check (list (pair string string)))
          "label value round-trips the escaping"
          [ ("path", "a\\b\"c\nd") ]
          s.E.se_labels;
        Alcotest.(check (float 0.)) "value" 3. s.E.se_value
  in
  check_series (E.parse_openmetrics text)

(* ------------------------------------------------------------------ *)
(* The blame graph. *)

module Bg = Tm_telemetry.Blame_graph
module Pc = Tm_liveness.Process_class
module Stm = Tm_stm.Stm

(* Deliver one site to the graph as if reached on slot [self]. *)
let deliver g ~self site a b =
  Stm.Obs.set_self self;
  ignore (Bg.subscriber g site a b);
  Stm.Obs.set_self (-1)

let ev ?(cause = Stm.Obs.Read_conflict) ?(tvar = 0) g v a =
  deliver g ~self:v (Stm.Obs.Conflict cause) a tvar

let progress g slot = deliver g ~self:slot Stm.Obs.Commit 0 0

let test_blame_graph_folding () =
  let reg = R.create () in
  let g = Bg.create reg ~domains:3 in
  ev g 1 0;
  ev g 1 0 ~cause:Stm.Obs.Lock_busy;
  ev g 2 0;
  ev g (-1) 0;
  ev g 1 99 (* out of range -> unknown *);
  (* A steal is reported by the aggressor and names the victim. *)
  deliver g ~self:2 (Stm.Obs.Conflict Stm.Obs.Stolen) 1 0;
  Alcotest.(check int) "edge 1->0 read-conflict" 1
    (Bg.edge g ~victim:1 ~aggressor:0 Stm.Obs.Read_conflict);
  Alcotest.(check int) "stolen edge 1->2" 1
    (Bg.edge g ~victim:1 ~aggressor:2 Stm.Obs.Stolen);
  Alcotest.(check int) "edge 1->0 total over causes" 2
    (Bg.edge_total g ~victim:1 ~aggressor:0);
  Alcotest.(check int) "unknown victim folded" 1
    (Bg.edge_total g ~victim:(-1) ~aggressor:0);
  Alcotest.(check int) "out-of-range aggressor clamped to unknown" 1
    (Bg.edge_total g ~victim:1 ~aggressor:(-1));
  Alcotest.(check int) "victim total" 4 (Bg.victim_total g 1);
  Alcotest.(check int) "clock ticks per event" 6 (Bg.clock g);
  Alcotest.(check (list (triple int int int)))
    "edges in canonical order"
    [ (-1, 0, 1); (1, -1, 1); (1, 0, 2); (1, 2, 1); (2, 0, 1) ]
    (Bg.edges g);
  (* After a mark the graph counts afresh; the clock does not. *)
  Bg.mark g;
  ev g 1 0;
  Alcotest.(check int) "edge counts from the mark" 1
    (Bg.edge_total g ~victim:1 ~aggressor:0);
  Alcotest.(check (list (triple int int int))) "edges since the mark"
    [ (1, 0, 1) ] (Bg.edges g);
  Alcotest.(check int) "clock keeps counting" 7 (Bg.clock g)

let test_blame_graph_watermarks () =
  let reg = R.create () in
  let g = Bg.create reg ~domains:2 in
  ev g 1 0;
  ev g 1 0;
  progress g 0;
  Alcotest.(check int) "commit counted" 1 (Bg.commits g 0);
  Alcotest.(check int) "last commit at clock 3" 3 (Bg.last_commit g 0);
  Alcotest.(check int) "committer age 0" 0 (Bg.wait_age g 0);
  ev g 1 0;
  ev g 1 0;
  Alcotest.(check int) "age grows with peer events" 2 (Bg.wait_age g 0);
  Alcotest.(check int) "never-committed slot ages from 0" 5 (Bg.wait_age g 1);
  let snap = R.scrape reg ~ts:0 in
  Alcotest.(check (option int)) "clock gauge" (Some 5)
    (R.sample_num snap ~name:"tm_blame_clock" ~labels:[]);
  Alcotest.(check (option int)) "wait-age gauge" (Some 2)
    (R.sample_num snap ~name:"tm_blame_wait_age"
       ~labels:[ ("domain", "0") ]);
  Alcotest.(check (option int)) "commit counter exported" (Some 1)
    (R.sample_num snap ~name:"tm_blame_commits_total"
       ~labels:[ ("domain", "0") ])

let feed g n v a =
  for _ = 1 to n do
    ev g v a
  done

let test_blame_classify_star () =
  let reg = R.create () in
  let g = Bg.create reg ~domains:3 in
  feed g 100 1 0;
  feed g 100 2 0;
  let shape, evidence =
    Bg.classify g ~classes:[| Pc.Crashed; Pc.Starving; Pc.Starving |]
  in
  Alcotest.(check string) "star centred on the corpse" "star:0"
    (Bg.shape_label shape);
  Alcotest.(check (list string))
    "evidence verdict-first, dominators attributed"
    [ "crashed"; "starved-by:0"; "starved-by:0" ]
    (Array.to_list (Array.map Bg.evidence_label evidence))

let test_blame_classify_cycle () =
  let reg = R.create () in
  let g = Bg.create reg ~domains:3 in
  feed g 100 0 1;
  feed g 100 1 0;
  let shape, evidence =
    Bg.classify g ~classes:[| Pc.Starving; Pc.Starving; Pc.Progressing |]
  in
  Alcotest.(check string) "mutual dominance is a cycle" "cycle"
    (Bg.shape_label shape);
  Alcotest.(check (list string))
    "starving rivals blame each other; the bystander stays progressing"
    [ "starved-by:1"; "starved-by:0"; "progressing" ]
    (Array.to_list (Array.map Bg.evidence_label evidence))

let test_blame_classify_quiet () =
  let reg = R.create () in
  let g = Bg.create reg ~domains:2 in
  feed g 5 1 0 (* below min_events: unwitnessed starvation *);
  let shape, evidence =
    Bg.classify g ~classes:[| Pc.Progressing; Pc.Starving |]
  in
  Alcotest.(check string) "no attributable victim, no shape" "none"
    (Bg.shape_label shape);
  Alcotest.(check string) "starving but unwitnessed is quiet" "quiet"
    (Bg.evidence_label evidence.(1));
  Alcotest.check_raises "classes arity enforced"
    (Invalid_argument "Blame_graph.classify: one class per domain")
    (fun () -> ignore (Bg.classify g ~classes:[| Pc.Progressing |]))

(* ------------------------------------------------------------------ *)
(* The liveness gauge. *)

let test_liveness_transitions () =
  let ops = ref 0 and trycs = ref 0 and commits = ref 0 and aborts = ref 0 in
  let reg = R.create () in
  let src =
    L.source
      ~ops:(fun () -> !ops)
      ~trycs:(fun () -> !trycs)
      ~commits:(fun () -> !commits)
      ~aborts:(fun () -> !aborts)
  in
  let t = L.create reg ~sources:[| src |] in
  let observed () =
    let snap = R.scrape reg ~ts:0 in
    ( Option.get
        (R.sample_state snap ~name:"tm_liveness_class"
           ~labels:[ ("domain", "0") ]),
      Option.get
        (R.sample_num snap ~name:"tm_liveness_correct"
           ~labels:[ ("domain", "0") ]) )
  in
  let step msg expect_cls expect_correct =
    L.update t;
    let cls, correct = observed () in
    Alcotest.(check string) (msg ^ " class") expect_cls cls;
    Alcotest.(check int) (msg ^ " correct") expect_correct correct
  in
  (* Healthy interval: everything advances. *)
  ops := 100;
  trycs := 10;
  commits := 10;
  step "healthy" "progressing" 1;
  (* Commits stall while aborts climb: starving, but still correct. *)
  ops := 300;
  trycs := 50;
  aborts := 40;
  step "stalled commits" "starving" 1;
  (* Nothing advances at all: crashed. *)
  step "frozen counters" "crashed" 0;
  (* Active but never trying to commit and never aborted: parasitic. *)
  ops := 400;
  step "reads only" "parasitic" 0;
  (* [set] replaces the classes the scrape reads, whatever the counters
     say; the next update classifies from the counters again. *)
  L.set t [| Pc.Starving |];
  let cls, correct = observed () in
  Alcotest.(check string) "set class" "starving" cls;
  Alcotest.(check int) "set correct" 1 correct;
  ops := 500;
  step "update after set" "parasitic" 0

(* ------------------------------------------------------------------ *)
(* Step-clock JSONL determinism. *)

let jsonl_of_run () =
  let entry =
    match Tm_impl.Registry.find "tl2" with
    | Some e -> e
    | None -> Alcotest.fail "tl2 not registered"
  in
  let spec =
    Tm_sim.Runner.spec ~nprocs:3 ~steps:600 ~seed:7
      ~sched:Tm_sim.Runner.Uniform ()
  in
  let buf = Buffer.create 4096 in
  let reg = R.create () in
  let pub =
    Tm_telemetry.Sim_pub.create
      ~consumers:
        [
          (fun s ->
            Buffer.add_string buf (E.to_jsonl s);
            Buffer.add_char buf '\n');
        ]
      ~nprocs:3 reg
  in
  Tm_telemetry.Sim_pub.publish pub
    (Tm_sim.Runner.run entry spec).Tm_sim.Runner.history;
  Buffer.contents buf

let test_jsonl_deterministic () =
  let a = jsonl_of_run () and b = jsonl_of_run () in
  Alcotest.(check bool) "time series is non-trivial" true
    (String.length a > 100);
  Alcotest.(check string) "two runs, same bytes" a b;
  (* Step-clock timestamps only: the last line's ts is the history
     length, not wall time. *)
  Alcotest.(check bool) "first scrape at ts 0" true
    (String.length a >= 8 && String.sub a 0 8 = {|{"ts":0,|})

(* ------------------------------------------------------------------ *)
(* Signals that must agree: the Tel probe's counts and [Stm.stats]. *)

(* Two domains increment one hot t-variable: the probe's commit and
   abort deltas equal the facade's, and every attempt it saw begin ended
   in one of the two. *)
let tel_matches_stats algo () =
  Stm.with_algo algo (fun () ->
      let p, probe = Tm_telemetry.Stm_probe.install (R.create ()) in
      let hot = Stm.tvar 0 and n = 5_000 in
      let c0, a0 = Stm.stats () in
      Fun.protect ~finally:(fun () -> Stm.Obs.unsubscribe probe) (fun () ->
          List.init 2 (fun _ ->
              Domain.spawn (fun () ->
                  for _ = 1 to n do
                    Stm.atomically (fun () -> Stm.write hot (Stm.read hot + 1))
                  done))
          |> List.iter Domain.join);
      let c1, a1 = Stm.stats () in
      let name = Stm.Algo.name algo in
      let v = I.value in
      Alcotest.(check int) (name ^ ": commits") (2 * n) (c1 - c0);
      Alcotest.(check int) (name ^ ": tm_stm_commits_total = stats") (c1 - c0)
        (v p.commits);
      Alcotest.(check int) (name ^ ": tm_stm_aborts_total = stats") (a1 - a0)
        (v p.aborts);
      Alcotest.(check int)
        (name ^ ": every attempt commits or aborts")
        (v p.begins)
        (v p.commits + v p.aborts))

(* The lock histogram times acquisition, not the body: a clock that
   only the body advances leaves every lock sample at zero, while the
   whole-attempt sample carries the body's time.  Global-lock and DSTM
   lock from the body's first write; TL2 locks at commit; NOrec takes
   no lock. *)
let lock_phase_excludes_body algo () =
  Stm.with_algo algo (fun () ->
      let now = ref 0 in
      let p = Tm_telemetry.Stm_probe.register (R.create ()) in
      let probe =
        Stm.Obs.subscribe
          (Tm_telemetry.Stm_probe.subscriber ~clock:(fun () -> !now) p)
      in
      let a = Stm.tvar 0 and b = Stm.tvar 0 in
      Fun.protect ~finally:(fun () -> Stm.Obs.unsubscribe probe) (fun () ->
          Stm.atomically (fun () ->
              Stm.write a 1;
              (* tmstatic: allow txn-purity — the body's simulated time *)
              now := !now + 1_000;
              ignore (Stm.read b)));
      let lock = I.hist_snapshot p.lock_ns
      and commit = I.hist_snapshot p.commit_ns in
      let name = Stm.Algo.name algo in
      Alcotest.(check int)
        (name ^ ": lock samples")
        (if algo = Stm.Algo.Norec then 0 else 1)
        lock.count;
      Alcotest.(check int) (name ^ ": no body time in lock samples") 0 lock.sum;
      Alcotest.(check int) (name ^ ": body time in the attempt") 1_000
        commit.sum)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "tm_telemetry"
    [
      ( "instruments",
        [
          Alcotest.test_case "counter sharded over 4 domains" `Quick
            test_counter_sharded;
          Alcotest.test_case "histogram sharded over 4 domains" `Quick
            test_histogram_sharded;
          Alcotest.test_case "empty snapshot pretty-prints" `Quick
            test_pp_empty;
          Alcotest.test_case "merge a Metrics histogram into log2" `Quick
            test_merge_sim_into_log2;
          Alcotest.test_case "merge routes overflow to overflow" `Quick
            test_merge_overflow;
        ] );
      ( "histograms",
        edge_cases
        @ List.map
            (fun l -> QCheck_alcotest.to_alcotest (prop_layout l))
            layouts
        @ [ QCheck_alcotest.to_alcotest prop_merge_quantile_monotone ] );
      ( "latency recorder",
        [
          Alcotest.test_case "queueing/service/sojourn split" `Quick
            test_latency_recorder_split;
          Alcotest.test_case "write paths allocate nothing" `Quick
            test_write_paths_allocate_nothing;
          Alcotest.test_case "open vs closed quantile under a stall"
            `Quick test_latency_recorder_open_vs_closed;
        ] );
      ( "export",
        [
          Alcotest.test_case "openmetrics round-trip" `Quick
            test_openmetrics_roundtrip;
          Alcotest.test_case "hires cumulative buckets round-trip" `Quick
            test_hires_openmetrics_roundtrip;
          Alcotest.test_case "golden openmetrics and jsonl bytes" `Quick
            test_exporters_golden;
          Alcotest.test_case "EOF-only exposition" `Quick
            test_openmetrics_empty_exposition;
          Alcotest.test_case "escaped label values round-trip" `Quick
            test_openmetrics_escaped_labels;
        ] );
      ( "blame graph",
        [
          Alcotest.test_case "events fold into edges and the clock" `Quick
            test_blame_graph_folding;
          Alcotest.test_case "progress watermarks and gauges" `Quick
            test_blame_graph_watermarks;
          Alcotest.test_case "shared dominator classifies as a star" `Quick
            test_blame_classify_star;
          Alcotest.test_case "mutual blame classifies as a cycle" `Quick
            test_blame_classify_cycle;
          Alcotest.test_case "unwitnessed starvation is quiet" `Quick
            test_blame_classify_quiet;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "class transitions" `Quick
            test_liveness_transitions;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "step-clock series is byte-deterministic"
            `Quick test_jsonl_deterministic;
        ] );
      ( "reconciliation",
        List.map
          (fun a ->
            Alcotest.test_case
              (Stm.Algo.name a ^ " Tel counts = Stm.stats")
              `Quick (tel_matches_stats a))
          Stm.Algo.all
        @ List.map
            (fun a ->
              Alcotest.test_case
                (Stm.Algo.name a ^ " lock phase excludes the body")
                `Quick (lock_phase_excludes_body a))
            Stm.Algo.all );
    ]
