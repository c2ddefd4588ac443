(* The trace subsystem: ring-buffer bounds, Chrome-JSON export round-trip,
   deterministic runner traces (same seed -> same bytes, pool-invariant),
   Stm runtime tracing, and the traced opacity monitor. *)

module Tev = Tm_trace.Trace_event

let ev ?(ts = 0) ?(pid = 0) ?(tid = 1) ?(args = []) ?(phase = Tev.Instant)
    ?(cat = Tev.Txn) name =
  { Tev.ts; pid; tid; cat; name; phase; args }

let event = Alcotest.testable Tev.pp Tev.equal

(* ------------------------------------------------------------------ *)
(* Ring buffer. *)

let test_ring_bounded () =
  let r = Tm_trace.Ring.create ~capacity:4 in
  for i = 0 to 9 do
    Tm_trace.Ring.add r (ev ~ts:i "e")
  done;
  Alcotest.(check int) "length capped" 4 (Tm_trace.Ring.length r);
  Alcotest.(check int) "total counts all" 10 (Tm_trace.Ring.total r);
  Alcotest.(check int) "dropped = total - capacity" 6
    (Tm_trace.Ring.dropped r);
  Alcotest.(check (list int)) "keeps the newest, oldest first"
    [ 6; 7; 8; 9 ]
    (List.map (fun (e : Tev.t) -> e.Tev.ts) (Tm_trace.Ring.to_list r));
  Tm_trace.Ring.clear r;
  Alcotest.(check int) "clear empties" 0 (Tm_trace.Ring.length r);
  Alcotest.(check int) "clear resets dropped" 0 (Tm_trace.Ring.dropped r)

let test_ring_partial () =
  let r = Tm_trace.Ring.create ~capacity:8 in
  List.iter (fun i -> Tm_trace.Ring.add r (ev ~ts:i "e")) [ 0; 1; 2 ];
  Alcotest.(check int) "length below capacity" 3 (Tm_trace.Ring.length r);
  Alcotest.(check int) "nothing dropped" 0 (Tm_trace.Ring.dropped r);
  Alcotest.(check (list int)) "insertion order"
    [ 0; 1; 2 ]
    (List.map (fun (e : Tev.t) -> e.Tev.ts) (Tm_trace.Ring.to_list r));
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Tm_trace.Ring.create ~capacity:0))

(* ------------------------------------------------------------------ *)
(* Export: JSON round-trip. *)

let sample_events =
  [
    ev ~phase:Tev.Metadata ~cat:Tev.Sched
      ~args:[ ("name", Tev.Str "tl2/crash/seed=1") ]
      "process_name";
    ev ~ts:1 ~tid:2 ~phase:Tev.Span_begin
      ~args:[ ("index", Tev.Int 0); ("mode", Tev.Str "normal") ]
      "txn";
    ev ~ts:3 ~tid:2 ~cat:Tev.Lock
      ~args:[ ("tvar", Tev.Int 7); ("order", Tev.Int 0) ]
      "acquire";
    ev ~ts:4 ~tid:2 ~cat:Tev.Validation ~args:[ ("tvar", Tev.Int 7) ]
      "read-invalid";
    ev ~ts:5 ~tid:2 ~cat:Tev.Backoff
      ~args:[ ("attempt", Tev.Int 1); ("spins", Tev.Int 17) ]
      "wait";
    ev ~ts:6 ~tid:2 ~phase:(Tev.Counter 3) ~cat:Tev.Sched "defers-p2";
    ev ~ts:7 ~tid:1 ~cat:Tev.Fault
      ~args:[ ("fate", Tev.Str "crash-after-write") ]
      "crash";
    ev ~ts:9 ~tid:2 ~phase:Tev.Span_end
      ~args:[ ("outcome", Tev.Str "commit") ]
      "txn";
    ev ~ts:10 ~cat:Tev.Monitor
      ~args:[ ("msg", Tev.Str "tricky \"quoted\"\n\tstring \\ with escapes") ]
      "no-witness";
  ]

let test_export_round_trip () =
  let json = Tm_trace.Export.chrome_string sample_events in
  (match Tm_trace.Export.of_chrome_string json with
  | Ok parsed ->
      Alcotest.(check (list event)) "record -> JSON -> parse -> same events"
        sample_events parsed
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  (* Empty trace round-trips too. *)
  match Tm_trace.Export.of_chrome_string (Tm_trace.Export.chrome_string []) with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty trace parsed non-empty"
  | Error msg -> Alcotest.failf "empty trace parse failed: %s" msg

let test_export_deterministic_bytes () =
  Alcotest.(check string) "serialization is byte-stable"
    (Tm_trace.Export.chrome_string sample_events)
    (Tm_trace.Export.chrome_string sample_events)

let test_export_chrome_shape () =
  let json = Tm_trace.Export.chrome_string sample_events in
  let contains = Tm_test_util.Util.contains json in
  Alcotest.(check bool) "top-level array" true
    (String.length json > 0 && json.[0] = '[');
  Alcotest.(check bool) "span begin phase code" true
    (contains "\"ph\":\"B\"");
  Alcotest.(check bool) "instants carry a scope" true
    (contains "\"ph\":\"i\",\"ts\":7,\"pid\":0,\"tid\":1,\"s\":\"t\"");
  Alcotest.(check bool) "counters put the value in args" true
    (contains "\"ph\":\"C\"" && contains "{\"value\":3}");
  Alcotest.(check bool) "metadata record names the process" true
    (contains "\"ph\":\"M\"")

let test_export_rejects_garbage () =
  let bad s =
    match Tm_trace.Export.of_chrome_string s with
    | Ok _ -> Alcotest.failf "accepted garbage: %s" s
    | Error _ -> ()
  in
  bad "";
  bad "{}";
  bad "[{\"name\":\"x\"}]";
  bad "[{\"name\":\"x\",\"cat\":\"nope\",\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{}}]";
  bad "[{\"name\":\"x\",\"cat\":\"txn\",\"ph\":\"Z\",\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{}}]";
  bad "[ {\"name\":\"x\"} "

let test_export_file_round_trip () =
  Tm_test_util.Util.with_temp_file ~suffix:".json" (fun path ->
      Tm_test_util.Util.with_out_channel path (fun oc ->
          Tm_trace.Export.to_chrome_channel oc sample_events);
      match
        Tm_trace.Export.of_chrome_string (Tm_test_util.Util.read_file path)
      with
      | Ok parsed ->
          Alcotest.(check (list event)) "write file -> read -> same events"
            sample_events parsed
      | Error msg -> Alcotest.failf "file round-trip failed: %s" msg)

let test_text_dump () =
  let text = Tm_trace.Export.text_string sample_events in
  let lines = String.split_on_char '\n' text in
  let nonempty = List.filter (fun l -> l <> "") lines in
  Alcotest.(check int) "one line per event"
    (List.length sample_events)
    (List.length nonempty)

(* ------------------------------------------------------------------ *)
(* Runner traces: deterministic, pool-invariant, well-bracketed. *)

let entry name = Option.get (Tm_impl.Registry.find name)

let traced_run ?(seed = 3) ?(steps = 300) () =
  let spec =
    Tm_sim.Runner.spec ~nprocs:3 ~ntvars:2 ~steps ~seed
      ~sched:Tm_sim.Runner.Uniform
      ~fates:[ (1, Tm_sim.Runner.Parasitic_from 40) ]
      ()
  in
  let col = Tm_trace.Sink.collector () in
  let o =
    Tm_sim.Runner.run
      ~trace:(Tm_trace.Sink.collector_sink col)
      (entry "tl2") spec
  in
  (o, Tm_trace.Sink.collected col)

let test_runner_trace_deterministic () =
  let _, t1 = traced_run () in
  let _, t2 = traced_run () in
  Alcotest.(check (list event)) "same seed, same trace" t1 t2;
  Alcotest.(check string) "same bytes"
    (Tm_trace.Export.chrome_string t1)
    (Tm_trace.Export.chrome_string t2);
  Alcotest.(check bool) "trace is non-trivial" true (List.length t1 > 10)

let test_runner_trace_matches_untraced_outcome () =
  (* Tracing must not perturb the run itself. *)
  let o_traced, _ = traced_run () in
  let spec =
    Tm_sim.Runner.spec ~nprocs:3 ~ntvars:2 ~steps:300 ~seed:3
      ~sched:Tm_sim.Runner.Uniform
      ~fates:[ (1, Tm_sim.Runner.Parasitic_from 40) ]
      ()
  in
  let o_plain = Tm_sim.Runner.run (entry "tl2") spec in
  Alcotest.(check bool) "identical history" true
    (Tm_history.History.equal o_traced.Tm_sim.Runner.history
       o_plain.Tm_sim.Runner.history)

let test_runner_trace_spans_bracketed () =
  let _, t = traced_run () in
  (* Per process, txn spans must alternate B/E (a trailing open span is
     fine: the parasite's transaction never ends). *)
  let procs = [ 1; 2; 3 ] in
  List.iter
    (fun p ->
      let depth = ref 0 in
      List.iter
        (fun (e : Tev.t) ->
          if e.Tev.tid = p && e.Tev.name = "txn" then
            match e.Tev.phase with
            | Tev.Span_begin ->
                incr depth;
                Alcotest.(check int)
                  (Fmt.str "p%d spans never nest" p)
                  1 !depth
            | Tev.Span_end ->
                decr depth;
                Alcotest.(check bool)
                  (Fmt.str "p%d end matches a begin" p)
                  true (!depth >= 0)
            | _ -> ())
        t)
    procs;
  (* Timestamps are monotone (the step clock never goes backwards). *)
  let rec monotone last = function
    | [] -> true
    | (e : Tev.t) :: rest -> e.Tev.ts >= last && monotone e.Tev.ts rest
  in
  Alcotest.(check bool) "timestamps monotone" true (monotone 0 t);
  (* The parasitic turn is in the trace. *)
  Alcotest.(check bool) "parasitic instant present" true
    (List.exists
       (fun (e : Tev.t) -> e.Tev.name = "parasitic" && e.Tev.tid = 1)
       t)

let test_sweep_trace_pool_invariant () =
  let configs =
    Tm_sim.Sweep.grid
      ~tms:(List.filter_map Tm_impl.Registry.find [ "tl2"; "fgp" ])
      ~patterns:(Tm_sim.Sweep.fault_patterns ~steps:200 ())
      ~seeds:[ 1 ] ()
  in
  let seq = Tm_sim.Sweep.run ~trace:true configs in
  let par =
    Tm_sim.Pool.with_pool ~jobs:4 (fun pool ->
        Tm_sim.Sweep.run ~pool ~trace:true configs)
  in
  let trace r =
    match r.Tm_sim.Sweep.r_traced with
    | Some t -> t.Tm_sim.Sweep.t_trace
    | None ->
        Alcotest.failf "%s: no trace"
          (Tm_sim.Sweep.label r.Tm_sim.Sweep.r_config)
  in
  List.iter2
    (fun a b ->
      Alcotest.(check (list event))
        (Tm_sim.Sweep.label a.Tm_sim.Sweep.r_config)
        (trace a) (trace b))
    seq par;
  let untraced = Tm_sim.Sweep.run configs in
  List.iter
    (fun r ->
      Alcotest.(check bool) "no trace unless asked" true
        (Option.is_none r.Tm_sim.Sweep.r_traced))
    untraced

(* ------------------------------------------------------------------ *)
(* Stm runtime tracing. *)

let stm_work n =
  let v = Tm_stm.Stm.tvar 0 in
  for _ = 1 to n do
    Tm_stm.Stm.atomically (fun () ->
        Tm_stm.Stm.write v (Tm_stm.Stm.read v + 1))
  done

let test_stm_trace_ring () =
  Tm_stm.Stm.Trace.start ~capacity:64 ();
  Alcotest.(check bool) "tracing on" true (Tm_stm.Stm.Trace.is_on ());
  stm_work 500;
  Tm_stm.Stm.Trace.stop ();
  Alcotest.(check bool) "tracing off" false (Tm_stm.Stm.Trace.is_on ());
  let events = Tm_stm.Stm.Trace.events () in
  Alcotest.(check bool) "events recorded" true (events <> []);
  Alcotest.(check bool) "bounded by capacity" true (List.length events <= 64);
  Alcotest.(check bool) "older events dropped" true
    (Tm_stm.Stm.Trace.dropped () > 0);
  Alcotest.(check bool) "emitted counts everything" true
    (Tm_stm.Stm.Trace.emitted () >= 1000);
  (* 500 commits emit >= 1000 span events. *)
  Alcotest.(check bool) "attempt spans present" true
    (List.exists (fun (e : Tev.t) -> e.Tev.name = "attempt") events);
  (* The recorded events export cleanly. *)
  match Tm_trace.Export.of_chrome_string (Tm_trace.Export.chrome_string events)
  with
  | Ok parsed ->
      Alcotest.(check int) "stm events survive the JSON round-trip"
        (List.length events) (List.length parsed)
  | Error msg -> Alcotest.failf "stm trace export failed: %s" msg

let test_stm_trace_null () =
  Tm_stm.Stm.Trace.start_null ();
  stm_work 100;
  Tm_stm.Stm.Trace.stop ();
  Alcotest.(check bool) "null sink counts emissions" true
    (Tm_stm.Stm.Trace.emitted () >= 200);
  Alcotest.(check (list event)) "null sink stores nothing" []
    (Tm_stm.Stm.Trace.events ());
  (* Off means off: no emissions counted once stopped. *)
  let before = Tm_stm.Stm.Trace.emitted () in
  stm_work 50;
  Alcotest.(check int) "no emissions while off" before
    (Tm_stm.Stm.Trace.emitted ())

(* ------------------------------------------------------------------ *)
(* Traced monitor. *)

let test_monitor_traced () =
  let spec =
    Tm_sim.Runner.spec ~nprocs:3 ~ntvars:2 ~steps:400 ~seed:5
      ~sched:Tm_sim.Runner.Uniform ()
  in
  let o = Tm_sim.Runner.run (entry "tl2") spec in
  let h = o.Tm_sim.Runner.history in
  let col = Tm_trace.Sink.collector () in
  let traced =
    Tm_safety.Monitor.run_traced
      ~trace:(Tm_trace.Sink.collector_sink col)
      h
  in
  let plain = Tm_safety.Monitor.run h in
  Alcotest.(check bool) "traced verdict equals plain verdict" true
    (traced = plain);
  let events = Tm_trace.Sink.collected col in
  let verdicts =
    List.filter (fun (e : Tev.t) -> e.Tev.name = "verdict") events
  in
  Alcotest.(check int) "exactly one verdict event" 1 (List.length verdicts);
  let commits = Tm_sim.Runner.commit_total o in
  let epochs =
    List.filter (fun (e : Tev.t) -> e.Tev.name = "epoch") events
  in
  (* Every epoch advance is a committed writer; read-only commits don't
     bump the epoch, so the counter count is bounded by total commits. *)
  Alcotest.(check bool) "epoch counters present" true (epochs <> []);
  Alcotest.(check bool) "at most one epoch counter per commit" true
    (List.length epochs <= commits);
  (* Every monitor event sits inside the history's clock range. *)
  Alcotest.(check bool) "timestamps within history" true
    (List.for_all
       (fun (e : Tev.t) ->
         e.Tev.ts >= 0 && e.Tev.ts <= Tm_history.History.length h)
       events)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "bounded, drops oldest" `Quick test_ring_bounded;
          Alcotest.test_case "partial fill" `Quick test_ring_partial;
        ] );
      ( "export",
        [
          Alcotest.test_case "JSON round-trip" `Quick test_export_round_trip;
          Alcotest.test_case "deterministic bytes" `Quick
            test_export_deterministic_bytes;
          Alcotest.test_case "chrome trace_event shape" `Quick
            test_export_chrome_shape;
          Alcotest.test_case "rejects malformed input" `Quick
            test_export_rejects_garbage;
          Alcotest.test_case "file round-trip" `Quick
            test_export_file_round_trip;
          Alcotest.test_case "text dump" `Quick test_text_dump;
        ] );
      ( "runner",
        [
          Alcotest.test_case "deterministic across runs" `Quick
            test_runner_trace_deterministic;
          Alcotest.test_case "does not perturb the run" `Quick
            test_runner_trace_matches_untraced_outcome;
          Alcotest.test_case "spans well-bracketed" `Quick
            test_runner_trace_spans_bracketed;
          Alcotest.test_case "sweep traces pool-invariant" `Quick
            test_sweep_trace_pool_invariant;
        ] );
      ( "stm",
        [
          Alcotest.test_case "ring mode" `Quick test_stm_trace_ring;
          Alcotest.test_case "null mode" `Quick test_stm_trace_null;
        ] );
      ( "monitor",
        [ Alcotest.test_case "run_traced" `Quick test_monitor_traced ] );
    ]
