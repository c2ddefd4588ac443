(* Tests for the telemetry subsystem: sharded instruments under real
   domains, histogram quantile properties, the OpenMetrics exposition
   round-tripped through its own parser, liveness-gauge class
   transitions, and the byte-determinism of step-clock JSONL export. *)

module I = Tm_telemetry.Instrument
module R = Tm_telemetry.Registry
module E = Tm_telemetry.Export
module L = Tm_telemetry.Liveness_gauge

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
  Alcotest.(check int) "sum over shards" (4 * n) (I.value c);
  I.add c 5;
  Alcotest.(check int) "add lands too" ((4 * n) + 5) (I.value c)

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

let test_buckets () =
  Alcotest.(check int) "0 in bucket 0" 0 (I.bucket_of 0);
  Alcotest.(check int) "negatives in bucket 0" 0 (I.bucket_of (-3));
  Alcotest.(check int) "1 in bucket 1" 1 (I.bucket_of 1);
  Alcotest.(check int) "2 in bucket 2" 2 (I.bucket_of 2);
  Alcotest.(check int) "3 in bucket 2" 2 (I.bucket_of 3);
  Alcotest.(check int) "4 in bucket 3" 3 (I.bucket_of 4);
  Alcotest.(check int) "max_int overflows" (I.hist_buckets - 1)
    (I.bucket_of max_int);
  (* Every value is within its bucket's bounds. *)
  List.iter
    (fun v ->
      let k = I.bucket_of v in
      Alcotest.(check bool)
        (Fmt.str "%d <= upper(%d)" v k)
        true
        (v <= I.bucket_upper k);
      if k > 0 then
        Alcotest.(check bool)
          (Fmt.str "%d > upper(%d)" v (k - 1))
          true
          (v > I.bucket_upper (k - 1)))
    [ 0; 1; 2; 3; 7; 8; 100; 4095; 4096; 1_000_000_000 ]

let test_pp_hsnap_empty () =
  let h = I.histogram ~shards:1 () in
  Alcotest.(check string)
    "empty snapshot prints (empty)" "(empty)"
    (Fmt.str "%a" I.pp_hsnap (I.hist_snapshot h))

let prop_quantiles =
  QCheck.Test.make ~count:300
    ~name:"histogram quantiles: ordered, bounded by max, count conserved"
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 2_000_000))
    (fun samples ->
      let h = I.histogram ~shards:1 () in
      List.iter (I.observe h) samples;
      let s = I.hist_snapshot h in
      let q p = I.quantile s p in
      s.I.count = List.length samples
      && s.I.sum = List.fold_left ( + ) 0 samples
      && s.I.max_sample = List.fold_left max 0 samples
      && Array.fold_left ( + ) 0 s.I.buckets = s.I.count
      && 0 <= q 0.5
      && q 0.5 <= q 0.9
      && q 0.9 <= q 0.99
      && q 0.99 <= s.I.max_sample)

let test_absorb () =
  (* Folding a 15-bucket Tm_sim.Metrics histogram into a 32-bucket
     telemetry one preserves count, sum and max. *)
  let src = Tm_sim.Metrics.hist_of_list [ 0; 1; 5; 100; 9000 ] in
  let h = I.histogram ~shards:1 () in
  I.absorb h ~buckets:src.Tm_sim.Metrics.buckets ~sum:src.Tm_sim.Metrics.sum
    ~max_sample:src.Tm_sim.Metrics.max_sample;
  let s = I.hist_snapshot h in
  Alcotest.(check int) "count" 5 s.I.count;
  Alcotest.(check int) "sum" 9106 s.I.sum;
  Alcotest.(check int) "max" 9000 s.I.max_sample

let test_absorb_overflow () =
  (* Regression: a sample in the source's overflow bucket is only known
     to be >= 2^(nbuckets - 2); folding it into the same-index
     destination bucket would under-read it by orders of magnitude.  It
     must land in the destination's own overflow bucket. *)
  let src = Tm_sim.Metrics.hist_of_list [ 20_000; 3 ] in
  Alcotest.(check int) "sample sits in the source overflow bucket" 1
    src.Tm_sim.Metrics.buckets.(Tm_sim.Metrics.nbuckets - 1);
  let h = I.histogram ~shards:1 () in
  I.absorb h ~buckets:src.Tm_sim.Metrics.buckets ~sum:src.Tm_sim.Metrics.sum
    ~max_sample:src.Tm_sim.Metrics.max_sample;
  let s = I.hist_snapshot h in
  Alcotest.(check int) "overflow sample lands in our overflow bucket" 1
    s.I.buckets.(I.hist_buckets - 1);
  Alcotest.(check int) "not in the same-index range bucket" 0
    s.I.buckets.(Tm_sim.Metrics.nbuckets - 1);
  Alcotest.(check bool) "tail quantile reads the overflow sample" true
    (I.quantile s 0.99 >= 20_000)

(* ------------------------------------------------------------------ *)
(* Hires histograms. *)

let test_hires_bucket_edges () =
  Alcotest.(check int) "0 in bucket 0" 0 (I.hires_bucket_of 0);
  Alcotest.(check int) "negatives in bucket 0" 0 (I.hires_bucket_of (-3));
  Alcotest.(check int) "small values are exact" (I.hires_sub - 1)
    (I.hires_bucket_of (I.hires_sub - 1));
  Alcotest.(check int) "upper of an exact bucket is itself"
    (I.hires_sub - 1)
    (I.hires_bucket_upper (I.hires_sub - 1));
  Alcotest.(check int) "max_int lands in the overflow bucket"
    (I.hires_buckets - 1)
    (I.hires_bucket_of max_int);
  Alcotest.(check int) "overflow bucket is unbounded" max_int
    (I.hires_bucket_upper (I.hires_buckets - 1))

let prop_hires_buckets =
  QCheck.Test.make ~count:500
    ~name:"hires buckets: within bounds, disjoint, 12.5%-wide"
    QCheck.(int_bound 2_000_000_000)
    (fun v ->
      let k = I.hires_bucket_of v in
      0 <= k
      && k < I.hires_buckets
      && v <= I.hires_bucket_upper k
      && (k = 0 || v > I.hires_bucket_upper (k - 1))
      (* Sub-bucketing bounds the relative error by 1/hires_sub. *)
      && (v < I.hires_sub
         || I.hires_sub * (I.hires_bucket_upper k - v) <= v))

let prop_hires_quantiles =
  QCheck.Test.make ~count:300
    ~name:"hires quantiles: ordered, bounded by max, count conserved"
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 2_000_000))
    (fun samples ->
      let h = I.hires ~shards:1 () in
      List.iter (I.hires_observe h) samples;
      let s = I.hires_snapshot h in
      let q p = I.hires_quantile s p in
      s.I.count = List.length samples
      && s.I.sum = List.fold_left ( + ) 0 samples
      && s.I.max_sample = List.fold_left max 0 samples
      && Array.length s.I.buckets = I.hires_buckets
      && Array.fold_left ( + ) 0 s.I.buckets = s.I.count
      && 0 <= q 0.5
      && q 0.5 <= q 0.9
      && q 0.9 <= q 0.999
      && q 0.999 <= q 0.9999
      && q 0.9999 <= s.I.max_sample)

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
      List.for_all
        (fun p ->
          let qa = I.quantile a p and qb = I.quantile b p in
          let qm = I.quantile m p in
          (* Values are capped by each histogram's own max, so the
             upper bound is exact only at bucket granularity: merging
             never moves a quantile outside the parts' buckets, and
             never below the parts' smaller value. *)
          min qa qb <= qm
          && min (I.bucket_of qa) (I.bucket_of qb) <= I.bucket_of qm
          && I.bucket_of qm <= max (I.bucket_of qa) (I.bucket_of qb))
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
  let h = I.histogram () and r = I.hires () in
  let lr = Lr.create ~domains:1 () in
  let check what w =
    if w > 0.01 then Alcotest.failf "%s: %.2f words per call" what w
  in
  check "observe" (per (fun v -> I.observe h v));
  check "hires_observe" (per (fun v -> I.hires_observe r v));
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
  let c =
    R.counter reg ~shards:1
      ~labels:[ ("tm", "tl2") ]
      ~help:"ops" "tm_test_ops_total"
  in
  let g = R.gauge reg ~init:7 ~help:"width" "tm_test_width" in
  let h = R.histogram reg ~shards:1 ~help:"latency" "tm_test_lat_ns" in
  let st =
    R.state reg ~key:"class"
      ~states:[| "idle"; "busy" |]
      ~help:"mode" "tm_test_mode"
  in
  I.add c 42;
  List.iter (I.observe h) [ 1; 2; 3; 1000 ];
  R.set_state st "busy";
  ignore g;
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
  let h = R.hires reg ~shards:1 ~help:"sojourn" "tm_test_sojourn_ns" in
  let samples = [ 1; 9; 10; 1_000; 1_000_000 ] in
  List.iter (I.hires_observe h) samples;
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
       +Inf line, not hires_buckets lines. *)
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
  check_series (E.parse_openmetrics text);
  let series, findings = E.parse_openmetrics_lax text in
  check_series series;
  Alcotest.(check int) "lax agrees with strict on the hires exposition" 0
    (List.length findings)

(* Edge cases of the exposition parser: an exposition of only framing,
   the writer's label escaping round-tripped, and — for the lax
   variant — exotic lines (timestamps, summaries, garbage) becoming
   diagnostics instead of exceptions. *)

let test_openmetrics_empty_exposition () =
  Alcotest.(check int) "strict: only # EOF parses to no series" 0
    (List.length (E.parse_openmetrics "# EOF\n"));
  let series, findings = E.parse_openmetrics_lax "# EOF\n" in
  Alcotest.(check int) "lax: no series" 0 (List.length series);
  Alcotest.(check int) "lax: no findings" 0 (List.length findings)

let test_openmetrics_escaped_labels () =
  let reg = R.create () in
  let c =
    R.counter reg ~shards:1
      ~labels:[ ("path", "a\\b\"c\nd") ]
      ~help:"escapes" "tm_test_esc_total"
  in
  I.add c 3;
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
  check_series (E.parse_openmetrics text);
  let series, findings = E.parse_openmetrics_lax text in
  check_series series;
  Alcotest.(check int) "lax agrees with strict on clean input" 0
    (List.length findings)

let test_openmetrics_lax_unknown_types () =
  (* A foreign exposition: a summary with quantile labels (parses — it
     is within the line subset), a timestamped sample, an unterminated
     label set, and plain garbage.  The lax parser must keep the good
     lines and report the bad ones; the strict parser raises. *)
  let text =
    "# TYPE rpc_duration summary\n\
     rpc_duration{quantile=\"0.5\"} 0.25\n\
     http_requests_total 1027 1395066363000\n\
     bar{x=\"y\" 1\n\
     not a metric line at all\n\
     good_gauge 42\n\
     # EOF\n"
  in
  Alcotest.check_raises "strict parser raises on the timestamped line"
    (Failure "float_of_string") (fun () ->
      ignore (E.parse_openmetrics text));
  let series, findings = E.parse_openmetrics_lax text in
  Alcotest.(check int) "two parsable samples survive" 2 (List.length series);
  Alcotest.(check (float 0.)) "summary quantile line parses" 0.25
    (List.hd series).E.se_value;
  Alcotest.(check (float 0.)) "plain gauge parses" 42.
    (List.nth series 1).E.se_value;
  Alcotest.(check int) "three diagnostics" 3 (List.length findings);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Fmt.str "diagnostic %S names its line" f)
        true
        (String.length f > 5 && String.sub f 0 5 = "line "))
    findings

(* ------------------------------------------------------------------ *)
(* The blame graph. *)

module Bg = Tm_telemetry.Blame_graph
module Pc = Tm_liveness.Process_class
module Stm = Tm_stm.Stm

let ev ?(cause = Stm.Blame.Read_conflict) ?(tvar = 0) v a =
  { Stm.Blame.b_victim = v; b_aggressor = a; b_tvar = tvar; b_cause = cause }

let test_blame_graph_folding () =
  let reg = R.create () in
  let g = Bg.create reg ~domains:3 in
  let sink = Bg.sink_of g in
  sink.Stm.Blame.on_event (ev 1 0);
  sink.Stm.Blame.on_event (ev 1 0 ~cause:Stm.Blame.Lock_busy);
  sink.Stm.Blame.on_event (ev 2 0);
  sink.Stm.Blame.on_event (ev (-1) 0);
  sink.Stm.Blame.on_event (ev 1 99 (* out of range -> unknown *));
  Alcotest.(check int) "edge 1->0 read-conflict" 1
    (Bg.edge g ~victim:1 ~aggressor:0 Stm.Blame.Read_conflict);
  Alcotest.(check int) "edge 1->0 total over causes" 2
    (Bg.edge_total g ~victim:1 ~aggressor:0);
  Alcotest.(check int) "unknown victim folded" 1
    (Bg.edge_total g ~victim:(-1) ~aggressor:0);
  Alcotest.(check int) "out-of-range aggressor clamped to unknown" 1
    (Bg.edge_total g ~victim:1 ~aggressor:(-1));
  Alcotest.(check int) "victim total" 3 (Bg.victim_total g 1);
  Alcotest.(check int) "clock ticks per event" 5 (Bg.clock g);
  Alcotest.(check (list (triple int int int)))
    "edges in canonical order"
    [ (-1, 0, 1); (1, -1, 1); (1, 0, 2); (2, 0, 1) ]
    (Bg.edges g)

let test_blame_graph_watermarks () =
  let reg = R.create () in
  let g = Bg.create reg ~domains:2 in
  let sink = Bg.sink_of g in
  sink.Stm.Blame.on_event (ev 1 0);
  sink.Stm.Blame.on_event (ev 1 0);
  sink.Stm.Blame.on_progress 0;
  Alcotest.(check int) "commit counted" 1 (Bg.commits g 0);
  Alcotest.(check int) "last commit at clock 3" 3 (Bg.last_commit g 0);
  Alcotest.(check int) "committer age 0" 0 (Bg.wait_age g 0);
  sink.Stm.Blame.on_event (ev 1 0);
  sink.Stm.Blame.on_event (ev 1 0);
  Alcotest.(check int) "age grows with peer events" 2 (Bg.wait_age g 0);
  Alcotest.(check int) "never-committed slot ages from 0" 5 (Bg.wait_age g 1);
  Bg.refresh g;
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
  let sink = Bg.sink_of g in
  for _ = 1 to n do
    sink.Stm.Blame.on_event (ev v a)
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
    ignore (L.update t);
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
  Alcotest.(check bool) "current mirrors the stateset" true
    (Tm_liveness.Process_class.equal_cls (L.current t).(0)
       Tm_liveness.Process_class.Parasitic)

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
  let o =
    Tm_sim.Runner.run ~on_event:(Tm_telemetry.Sim_pub.hook pub) entry spec
  in
  ignore
    (Tm_telemetry.Sim_pub.finish pub
       ~ts:(Tm_history.History.length o.Tm_sim.Runner.history));
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
      let p = Tm_telemetry.Stm_probe.install (R.create ()) in
      let hot = Stm.tvar 0 and n = 5_000 in
      let c0, a0 = Stm.stats () in
      Fun.protect ~finally:Tm_telemetry.Stm_probe.uninstall (fun () ->
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
          Alcotest.test_case "bucket bounds" `Quick test_buckets;
          Alcotest.test_case "empty snapshot pretty-prints" `Quick
            test_pp_hsnap_empty;
          Alcotest.test_case "absorb a Metrics histogram" `Quick test_absorb;
          Alcotest.test_case "absorb routes overflow to overflow" `Quick
            test_absorb_overflow;
          QCheck_alcotest.to_alcotest prop_quantiles;
        ] );
      ( "hires",
        [
          Alcotest.test_case "bucket edges" `Quick test_hires_bucket_edges;
          QCheck_alcotest.to_alcotest prop_hires_buckets;
          QCheck_alcotest.to_alcotest prop_hires_quantiles;
          QCheck_alcotest.to_alcotest prop_merge_quantile_monotone;
        ] );
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
          Alcotest.test_case "EOF-only exposition" `Quick
            test_openmetrics_empty_exposition;
          Alcotest.test_case "escaped label values round-trip" `Quick
            test_openmetrics_escaped_labels;
          Alcotest.test_case "lax parser turns exotic lines into findings"
            `Quick test_openmetrics_lax_unknown_types;
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
          Stm.Algo.all );
    ]
