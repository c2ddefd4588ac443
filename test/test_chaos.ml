(* Tests for the chaos subsystem: plan derivation, counter
   classification, the chaos-class lint rule, and the determinism
   contract (same seed + scenario => byte-identical fault schedule and
   trace), both as unit cases and as a qcheck property. *)

module Plan = Tm_chaos.Plan
module Runner = Tm_chaos.Runner
module Emp = Tm_liveness.Empirical
module Pc = Tm_liveness.Process_class
module Tev = Tm_trace.Trace_event
module Stm = Tm_stm.Stm

(* ------------------------------------------------------------------ *)
(* Plans. *)

let test_plan_scenarios_documented () =
  Alcotest.(check bool) "at least the gated scenarios exist" true
    (List.mem "crash-holding-locks" Plan.scenarios
    && List.mem "parasitic-only" Plan.scenarios);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Fmt.str "%s has a doc line" s)
        true
        (Plan.scenario_doc s <> None))
    Plan.scenarios;
  Alcotest.(check (option string)) "unknown scenario has no doc" None
    (Plan.scenario_doc "no-such-scenario")

let test_plan_shapes () =
  List.iter
    (fun scenario ->
      match Plan.make ~scenario ~seed:11 ~domains:4 () with
      | Error m -> Alcotest.failf "%s: %s" scenario m
      | Ok p ->
          Alcotest.(check int)
            (scenario ^ " fault per domain")
            4
            (Array.length p.Plan.faults);
          Alcotest.(check int)
            (scenario ^ " expectation per domain")
            4
            (Array.length p.Plan.expected);
          Alcotest.(check bool)
            (scenario ^ " horizon past every fault")
            true
            (Plan.horizon p >= 1))
    Plan.scenarios

let test_plan_expectations () =
  let expect scenario cls0 cls_rest =
    match Plan.make ~scenario ~seed:3 ~domains:3 () with
    | Error m -> Alcotest.failf "%s: %s" scenario m
    | Ok p ->
        Alcotest.(check string)
          (scenario ^ " domain 0")
          (Pc.cls_label cls0)
          (Pc.cls_label p.Plan.expected.(0));
        Alcotest.(check string)
          (scenario ^ " domain 2")
          (Pc.cls_label cls_rest)
          (Pc.cls_label p.Plan.expected.(2))
  in
  expect "healthy" Pc.Progressing Pc.Progressing;
  expect "crash-holding-locks" Pc.Crashed Pc.Starving;
  expect "crash-clean" Pc.Crashed Pc.Progressing;
  expect "parasitic-only" Pc.Parasitic Pc.Progressing;
  expect "mixed" Pc.Crashed Pc.Progressing

(* The per-algorithm Figure-2 matrix: the same fault, different
   expected separations depending on the core. *)
let test_plan_expectations_per_algo () =
  let expect algo scenario d cls =
    match Plan.make ~algo ~scenario ~seed:3 ~domains:3 () with
    | Error m -> Alcotest.failf "%s: %s" scenario m
    | Ok p ->
        Alcotest.(check string)
          (Fmt.str "%s/%s domain %d" (Stm.Algo.name algo) scenario d)
          (Pc.cls_label cls)
          (Pc.cls_label p.Plan.expected.(d))
  in
  (* obstruction-freedom survives the crashed lock holder *)
  expect Stm.Algo.Dstm "crash-holding-locks" 0 Pc.Crashed;
  expect Stm.Algo.Dstm "crash-holding-locks" 2 Pc.Progressing;
  expect Stm.Algo.Norec "crash-holding-locks" 2 Pc.Starving;
  expect Stm.Algo.Global_lock "crash-holding-locks" 2 Pc.Starving;
  (* the serializer makes even a clean crash or a parasite lethal *)
  expect Stm.Algo.Global_lock "crash-clean" 2 Pc.Starving;
  expect Stm.Algo.Global_lock "parasitic-only" 0 Pc.Parasitic;
  expect Stm.Algo.Global_lock "parasitic-only" 2 Pc.Starving;
  expect Stm.Algo.Global_lock "mixed" 1 Pc.Starving;
  (* everyone else isolates them *)
  expect Stm.Algo.Norec "crash-clean" 2 Pc.Progressing;
  expect Stm.Algo.Dstm "parasitic-only" 2 Pc.Progressing;
  expect Stm.Algo.Norec "mixed" 1 Pc.Parasitic

let test_plan_errors () =
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "unknown scenario" true
    (is_error (Plan.make ~scenario:"nope" ~seed:0 ~domains:4 ()));
  Alcotest.(check bool) "one domain is not a run" true
    (is_error (Plan.make ~scenario:"healthy" ~seed:0 ~domains:1 ()));
  Alcotest.(check bool) "mixed needs three domains" true
    (is_error (Plan.make ~scenario:"mixed" ~seed:0 ~domains:2 ()))

let test_plan_trace_events_deterministic () =
  let events scenario =
    match Plan.make ~scenario ~seed:42 ~domains:4 () with
    | Error m -> Alcotest.failf "%s: %s" scenario m
    | Ok p -> Tm_trace.Export.chrome_string (Plan.trace_events p)
  in
  List.iter
    (fun scenario ->
      Alcotest.(check string)
        (scenario ^ " schedule is a pure function of the inputs")
        (events scenario) (events scenario))
    Plan.scenarios;
  (* Different seeds move the fault instants. *)
  let sched seed =
    match Plan.make ~scenario:"crash-holding-locks" ~seed ~domains:4 () with
    | Error m -> Alcotest.fail m
    | Ok p -> Plan.render_schedule p
  in
  Alcotest.(check bool) "seeds differentiate the schedule" true
    (sched 1 <> sched 2)

(* ------------------------------------------------------------------ *)
(* Counter classification. *)

let test_classify_counters () =
  let c = Emp.counters in
  let check name first last cls =
    Alcotest.(check string) name (Pc.cls_label cls)
      (Pc.cls_label (Emp.classify_counters ~first ~last))
  in
  let z = c ~ops:0 ~trycs:0 ~commits:0 ~aborts:0 in
  check "no ops at all -> crashed" z z Pc.Crashed;
  check "ops without tryC or aborts -> parasitic" z
    (c ~ops:500 ~trycs:0 ~commits:0 ~aborts:0)
    Pc.Parasitic;
  check "aborting forever without committing -> starving" z
    (c ~ops:500 ~trycs:0 ~commits:0 ~aborts:90)
    Pc.Starving;
  (* Abort-noise tolerance: a real parasite restarted a handful of
     times by a peer descheduled mid-commit is still a parasite... *)
  check "endless body with negligible abort noise -> parasitic" z
    (c ~ops:25600 ~trycs:0 ~commits:0 ~aborts:9)
    Pc.Parasitic;
  (* ...but a starver's ops are its failed attempts: never negligible. *)
  check "aborts above 1/64 of ops -> starving" z
    (c ~ops:500 ~trycs:0 ~commits:0 ~aborts:8)
    Pc.Starving;
  check "committing -> progressing" z
    (c ~ops:500 ~trycs:60 ~commits:55 ~aborts:5)
    Pc.Progressing;
  (* Deltas, not absolutes: a once-active domain that went silent. *)
  let mid = c ~ops:1000 ~trycs:100 ~commits:100 ~aborts:0 in
  check "no progress since the first sample -> crashed" mid mid Pc.Crashed

(* ------------------------------------------------------------------ *)
(* The chaos-class lint rule. *)

let fault_instant ~tid ~ts name args =
  Tev.instant ~ts ~tid Tev.Fault name args

let verdict_instant ~tid ~ts cls =
  Tev.instant ~ts ~tid Tev.Monitor "chaos-verdict"
    [ ("class", Tev.Str cls); ("expected", Tev.Str cls) ]

let run_chaos_rule events =
  List.filter
    (fun (f : Tm_analysis.Finding.t) -> f.Tm_analysis.Finding.rule = "chaos-class")
    (Tm_analysis.Engine.run_trace ~subject:"test" events)

let test_chaos_rule_clean () =
  let events =
    [
      fault_instant ~tid:0 ~ts:90 "chaos-crash"
        [ ("op", Tev.Int 90); ("holding_locks", Tev.Str "true") ];
      fault_instant ~tid:1 ~ts:40 "chaos-parasitic" [ ("op", Tev.Int 40) ];
      verdict_instant ~tid:0 ~ts:100 "crashed";
      verdict_instant ~tid:1 ~ts:100 "parasitic";
      verdict_instant ~tid:2 ~ts:100 "starving";
    ]
  in
  Alcotest.(check int) "agreeing trace is clean" 0
    (List.length (run_chaos_rule events))

let test_chaos_rule_mismatch () =
  let events =
    [
      fault_instant ~tid:0 ~ts:90 "chaos-crash" [ ("op", Tev.Int 90) ];
      verdict_instant ~tid:0 ~ts:100 "progressing";
    ]
  in
  Alcotest.(check int) "crash classified progressing is an error" 1
    (List.length (run_chaos_rule events))

let test_chaos_rule_unbacked_verdict () =
  let events = [ verdict_instant ~tid:3 ~ts:100 "crashed" ] in
  Alcotest.(check int) "crashed verdict without an injected fault" 1
    (List.length (run_chaos_rule events))

let test_chaos_rule_announced_parasitic_divergence () =
  (* A parasitic fault classified otherwise is fine exactly when the
     verdict announces the observed class as the plan's expectation
     (e.g. the global-lock serializer starves its parasite); an
     unannounced divergence is still a falsified verdict, and a crash
     stays strict even when announced. *)
  let verdict ~tid cls expected =
    Tev.instant ~ts:100 ~tid Tev.Monitor "chaos-verdict"
      [ ("class", Tev.Str cls); ("expected", Tev.Str expected) ]
  in
  let parasite = fault_instant ~tid:1 ~ts:40 "chaos-parasitic" [] in
  Alcotest.(check int) "announced parasitic divergence is clean" 0
    (List.length (run_chaos_rule [ parasite; verdict ~tid:1 "starving" "starving" ]));
  Alcotest.(check int) "unannounced parasitic divergence is an error" 1
    (List.length
       (run_chaos_rule [ parasite; verdict ~tid:1 "starving" "parasitic" ]));
  let crash = fault_instant ~tid:0 ~ts:40 "chaos-crash" [] in
  Alcotest.(check int) "crash direction stays strict even when announced" 1
    (List.length
       (run_chaos_rule [ crash; verdict ~tid:0 "progressing" "progressing" ]))

let test_chaos_rule_ignores_faultless_traces () =
  (* Traces without verdict events (simulator traces, stm demo traces)
     are exempt from the rule. *)
  let events =
    [ fault_instant ~tid:0 ~ts:10 "crash" [] ]
  in
  Alcotest.(check int) "no verdicts, no findings" 0
    (List.length (run_chaos_rule events))

(* ------------------------------------------------------------------ *)
(* Real runs: determinism and verdicts.  Short windows keep the suite
   fast; the classification already settles within a few milliseconds. *)

let run_scenario scenario seed =
  match Plan.make ~scenario ~seed ~domains:3 () with
  | Error m -> Alcotest.fail m
  | Ok p ->
      Runner.run ~warmup:0.02 ~window:0.05
        ~workload:(Runner.hot_set ~tvars:2)
        p

let test_run_crash_holding_locks () =
  let o = run_scenario "crash-holding-locks" 7 in
  Alcotest.(check bool) "verdicts match the expectation" true o.Runner.o_ok;
  let r0 = List.nth o.Runner.o_reports 0 in
  Alcotest.(check bool) "domain 0 died on Obs.Crashed" true
    r0.Runner.rep_crashed;
  List.iteri
    (fun d (r : Runner.report) ->
      if d > 0 then
        Alcotest.(check string)
          (Fmt.str "domain %d starves behind the held vlocks" d)
          (Pc.cls_label Pc.Starving)
          (Pc.cls_label r.Runner.rep_observed))
    o.Runner.o_reports

let run_scenario_algo algo scenario seed =
  match Plan.make ~algo ~scenario ~seed ~domains:3 () with
  | Error m -> Alcotest.fail m
  | Ok p ->
      Runner.run ~warmup:0.02 ~window:0.05
        ~workload:(Runner.hot_set ~tvars:2)
        p

(* The table's abort causes: every domain's line carries its window
   deltas of conflict sites by cause.  A healthy peer is charged one
   conflict per aborted attempt — under dstm a steal is charged to the
   victim it names, not to the stealer that reports it — and an attempt
   that began before the window can abort inside it, so its cause sum
   is at most its window aborts + 1; a peer that aborted is charged
   some. *)
let test_run_abort_causes () =
  let prints line sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length line && (String.sub line i n = sub || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun algo ->
      let name = Stm.Algo.name algo in
      let o = run_scenario_algo algo "crash-holding-locks" 7 in
      List.iter
        (fun (r : Runner.report) ->
          let line = Fmt.str "%a" Runner.pp_report r in
          List.iter
            (fun cause ->
              let column = Stm.Obs.cause_label cause ^ " " in
              if not (prints line column) then
                Alcotest.failf "%s: domain %d prints no %S column:@.%s" name
                  r.Runner.rep_domain column line)
            Stm.Obs.causes;
          if r.Runner.rep_fault = Plan.Healthy then begin
            let first = r.Runner.rep_first and last = r.Runner.rep_last in
            let count (s : Runner.sample) =
              List.fold_left (fun acc (_, n) -> acc + n) 0 s.Runner.causes
            in
            let causes = count last - count first in
            let aborts = last.Runner.aborts - first.Runner.aborts in
            if causes > aborts + 1 || (aborts > 1 && causes = 0) then
              Alcotest.failf "%s: domain %d: %d conflicts over %d aborts:@.%a"
                name r.Runner.rep_domain causes aborts Runner.pp_table o
          end)
        o.Runner.o_reports)
    [ Stm.Algo.Tl2; Stm.Algo.Dstm ]

let test_run_parasitic_only () =
  let o = run_scenario "parasitic-only" 5 in
  let want d = if d = 0 then Pc.Parasitic else Pc.Progressing in
  if
    (not o.Runner.o_ok)
    || List.exists
         (fun (r : Runner.report) ->
           Pc.cls_label r.Runner.rep_observed
           <> Pc.cls_label (want r.Runner.rep_domain))
         o.Runner.o_reports
  then Fmt.epr "parasitic-only mismatch:@.%a@." Runner.pp_table o;
  Alcotest.(check bool) "verdicts match the expectation" true o.Runner.o_ok;
  List.iteri
    (fun d (r : Runner.report) ->
      let want = want d in
      Alcotest.(check string)
        (Fmt.str "domain %d" d)
        (Pc.cls_label want)
        (Pc.cls_label r.Runner.rep_observed))
    o.Runner.o_reports

(* ------------------------------------------------------------------ *)
(* Per-algorithm runs: the Kuznetsov–Ravi separation as an executable
   claim.  The same seeded fault plan drives different cores and must
   produce the per-algorithm Figure-2 verdicts. *)

let check_peers name o want =
  if not o.Runner.o_ok then
    Fmt.epr "%s mismatch:@.%a@." name Runner.pp_table o;
  Alcotest.(check bool) (name ^ ": verdicts match") true o.Runner.o_ok;
  List.iteri
    (fun d (r : Runner.report) ->
      if d > 0 then
        Alcotest.(check string)
          (Fmt.str "%s: domain %d" name d)
          (Pc.cls_label want)
          (Pc.cls_label r.Runner.rep_observed))
    o.Runner.o_reports

(* The separation itself: a crash holding commit-time ownership strands
   every peer of the lock-based serializer forever, while the
   obstruction-free DSTM core's peers steal the dead transaction's
   ownerships and keep committing. *)
let test_run_crash_holding_locks_dstm () =
  let o = run_scenario_algo Stm.Algo.Dstm "crash-holding-locks" 7 in
  let r0 = List.nth o.Runner.o_reports 0 in
  Alcotest.(check bool) "domain 0 died on Obs.Crashed" true
    r0.Runner.rep_crashed;
  check_peers "dstm crash-holding-locks" o Pc.Progressing

let test_run_crash_holding_locks_glock () =
  let o = run_scenario_algo Stm.Algo.Global_lock "crash-holding-locks" 7 in
  check_peers "global-lock crash-holding-locks" o Pc.Starving

(* Even a clean crash (at a read) is lethal under the serializer: the
   global-lock core acquires at first access, so the read-point crash
   strands the big lock. *)
let test_run_crash_clean_glock () =
  let o = run_scenario_algo Stm.Algo.Global_lock "crash-clean" 11 in
  check_peers "global-lock crash-clean" o Pc.Starving

let test_run_parasitic_dstm () =
  let o = run_scenario_algo Stm.Algo.Dstm "parasitic-only" 5 in
  let r0 = List.nth o.Runner.o_reports 0 in
  Alcotest.(check string) "dstm: the parasite is parasitic"
    (Pc.cls_label Pc.Parasitic)
    (Pc.cls_label r0.Runner.rep_observed);
  check_peers "dstm parasitic-only" o Pc.Progressing

let test_run_parasitic_glock () =
  let o = run_scenario_algo Stm.Algo.Global_lock "parasitic-only" 5 in
  let r0 = List.nth o.Runner.o_reports 0 in
  Alcotest.(check string) "global-lock: the parasite is parasitic"
    (Pc.cls_label Pc.Parasitic)
    (Pc.cls_label r0.Runner.rep_observed);
  check_peers "global-lock parasitic-only" o Pc.Starving

(* Per-algorithm traces still pass the analyzer: the dstm verdicts
   agree outright, and the glock parasite's starving verdict is the
   announced-expectation case of the chaos-class rule. *)
let test_run_per_algo_traces_lint_clean () =
  List.iter
    (fun (algo, scenario, seed) ->
      let o = run_scenario_algo algo scenario seed in
      Alcotest.(check int)
        (Fmt.str "%s %s trace passes the analyzer" (Stm.Algo.name algo)
           scenario)
        0
        (List.length
           (Tm_analysis.Engine.run_trace ~subject:"chaos" o.Runner.o_events)))
    [
      (Stm.Algo.Dstm, "crash-holding-locks", 7);
      (Stm.Algo.Global_lock, "parasitic-only", 5);
    ]

let test_run_trace_byte_identical () =
  let bytes () =
    Tm_trace.Export.chrome_string (run_scenario "crash-holding-locks" 9).Runner.o_events
  in
  Alcotest.(check string) "equal runs export equal traces" (bytes ())
    (bytes ())

let test_run_trace_lints_clean () =
  let o = run_scenario "parasitic-only" 13 in
  let findings =
    Tm_analysis.Engine.run_trace ~subject:"chaos" o.Runner.o_events
  in
  if findings <> [] then
    Fmt.epr "parasitic-only findings:@.%a@.%a@." Tm_analysis.Finding.pp_report
      findings Runner.pp_table o;
  Alcotest.(check int) "chaos trace passes the analyzer" 0
    (List.length findings)

(* A parasite whose op clock passes its onset inside a transaction
   takes over only after that transaction: the onset wait must not
   return while it is still in flight.  Domain 0's first transaction
   reads past [from_op] (each read is one tick of its op clock) and then
   holds until released; every later transaction of either domain is a
   private read-increment. *)
let test_onset_waits_for_takeover () =
  let plan =
    match
      Plan.make ~algo:Stm.Algo.Tl2 ~scenario:"parasitic-only" ~seed:5
        ~domains:2 ()
    with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let from_op =
    match plan.Plan.faults.(0) with
    | Plan.Parasitic { from_op } -> from_op
    | _ -> Alcotest.fail "domain 0 is not the parasite"
  in
  let held = Atomic.make false and release = Atomic.make false in
  let workload (_ : Plan.t) =
    let tvs = Array.init 2 (fun _ -> Stm.tvar 0) in
    fun d ->
      {
        Runner.next = ignore;
        body =
          (fun takeover ->
            let v = Stm.read tvs.(d) in
            if d = 0 && not (Atomic.get release) then begin
              for _ = 1 to from_op do
                ignore (Stm.read tvs.(d))
              done;
              Atomic.set held true;
              while not (Atomic.get release) do
                Domain.cpu_relax ()
              done
            end;
            takeover ();
            Stm.write tvs.(d) (v + 1));
      }
  in
  Runner.with_session ~workload plan (fun ses ->
      Fun.protect
        ~finally:(fun () -> Atomic.set release true)
        (fun () ->
          let deadline = Unix.gettimeofday () +. 10.0 in
          while (not (Atomic.get held)) && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.001
          done;
          Alcotest.(check bool) "the parasite holds past its onset" true
            (Atomic.get held);
          Alcotest.(check bool)
            "no onset while the transaction is in flight" false
            (Runner.await_onsets ses);
          Atomic.set release true;
          Alcotest.(check bool) "the onset lands at the takeover" true
            (Runner.await_onsets ses)))

(* ------------------------------------------------------------------ *)
(* Blame-armed runs: the graph arrives in the outcome, classifies to
   the per-algorithm deterministic shape, and annotates the exported
   trace with evidence instants the analyzer accepts. *)

module Bg = Tm_telemetry.Blame_graph

let run_blame ?(warmup = 0.02) ?(window = 0.05) algo scenario seed =
  match Plan.make ~algo ~scenario ~seed ~domains:3 () with
  | Error m -> Alcotest.fail m
  | Ok p ->
      Runner.run ~blame:true ~warmup ~window
        ~workload:(Runner.hot_set ~tvars:2)
        p

let classify_outcome o =
  match o.Runner.o_blame with
  | None -> Alcotest.fail "blame run returned no graph"
  | Some g ->
      let classes =
        Array.of_list
          (List.map (fun r -> r.Runner.rep_observed) o.Runner.o_reports)
      in
      Bg.classify g ~classes

let test_blame_run_star_tl2 () =
  let o = run_blame Stm.Algo.Tl2 "crash-holding-locks" 7 in
  Alcotest.(check bool) "verdicts match" true o.Runner.o_ok;
  let shape, evidence = classify_outcome o in
  Alcotest.(check string) "stranded vlocks make a star on the corpse"
    "star:0" (Bg.shape_label shape);
  Alcotest.(check string) "domain 0 crashed" "crashed"
    (Bg.evidence_label evidence.(0));
  Array.iteri
    (fun d e ->
      if d > 0 then
        Alcotest.(check string)
          (Fmt.str "domain %d starves behind domain 0" d)
          "starved-by:0" (Bg.evidence_label e))
    evidence

(* The separation, restated in blame vocabulary: the same crash that
   draws a star under tl2 leaves dstm with nothing to attribute. *)
let test_blame_run_none_dstm () =
  let o = run_blame Stm.Algo.Dstm "crash-holding-locks" 7 in
  let shape, evidence = classify_outcome o in
  Alcotest.(check string) "obstruction-freedom leaves nothing to explain"
    "none" (Bg.shape_label shape);
  Array.iteri
    (fun d e ->
      if d > 0 then
        Alcotest.(check string)
          (Fmt.str "domain %d steals past the corpse" d)
          "progressing" (Bg.evidence_label e))
    evidence

let test_blame_run_trace_evidence () =
  let o = run_blame Stm.Algo.Tl2 "crash-holding-locks" 7 in
  let instants =
    List.filter (fun e -> e.Tev.name = "blame-evidence") o.Runner.o_events
  in
  Alcotest.(check int) "one evidence instant per domain" 3
    (List.length instants);
  List.iter
    (fun e ->
      Alcotest.(check (option string))
        "evidence instants carry the shape" (Some "star:0")
        (Tev.arg_str e "shape"))
    instants;
  Alcotest.(check int) "blame-annotated trace passes the analyzer" 0
    (List.length
       (Tm_analysis.Engine.run_trace ~subject:"chaos" o.Runner.o_events))

let test_blame_run_deterministic () =
  let render o =
    let shape, evidence = classify_outcome o in
    Bg.shape_label shape
    ^ "/"
    ^ String.concat ","
        (Array.to_list (Array.map Bg.evidence_label evidence))
  in
  (* The serializer's victims back off on the big lock, so witnessing
     [min_events] of blame per peer needs the standard window length. *)
  let a = run_blame ~warmup:0.05 ~window:0.15 Stm.Algo.Global_lock
      "parasitic-only" 5 in
  let b = run_blame ~warmup:0.05 ~window:0.15 Stm.Algo.Global_lock
      "parasitic-only" 5 in
  Alcotest.(check string) "serializer takeover is a star on the parasite"
    "star:0/parasitic,starved-by:0,starved-by:0" (render a);
  Alcotest.(check string) "same seed, same classified form" (render a)
    (render b)

(* ------------------------------------------------------------------ *)
(* qcheck: the determinism contract over the whole input space.  The
   property recomputes a plan from the same (scenario, seed, domains)
   triple and demands a byte-identical rendered schedule and Chrome
   export — the schedule is what both the trace file and the fault
   handler are driven by, so this is the same-seed-same-faults law the
   chaos CLI advertises for every --jobs value. *)

let arb_plan_inputs =
  QCheck.make
    ~print:(fun (s, seed, d) -> Fmt.str "(%s, seed=%d, domains=%d)" s seed d)
    QCheck.Gen.(
      let* s = oneofl (List.filter (fun s -> s <> "mixed") Plan.scenarios) in
      let* seed = 0 -- 10_000 in
      let* d = 2 -- 8 in
      return (s, seed, d))

let prop_plan_deterministic =
  QCheck.Test.make ~count:200 ~name:"same inputs, same schedule bytes"
    arb_plan_inputs (fun (scenario, seed, domains) ->
      match
        ( Plan.make ~scenario ~seed ~domains (),
          Plan.make ~scenario ~seed ~domains () )
      with
      | Ok a, Ok b ->
          Plan.render_schedule a = Plan.render_schedule b
          && Tm_trace.Export.chrome_string (Plan.trace_events a)
             = Tm_trace.Export.chrome_string (Plan.trace_events b)
      | _ -> false)

let prop_plan_roundtrips =
  QCheck.Test.make ~count:100 ~name:"schedule survives a chrome round-trip"
    arb_plan_inputs (fun (scenario, seed, domains) ->
      match Plan.make ~scenario ~seed ~domains () with
      | Error _ -> false
      | Ok p -> (
          let s = Tm_trace.Export.chrome_string (Plan.trace_events p) in
          match Tm_trace.Export.of_chrome_string s with
          | Error _ -> false
          | Ok evs -> Tm_trace.Export.chrome_string evs = s))

let () =
  Alcotest.run "tm_chaos"
    [
      ( "plan",
        [
          Alcotest.test_case "scenarios documented" `Quick
            test_plan_scenarios_documented;
          Alcotest.test_case "shapes" `Quick test_plan_shapes;
          Alcotest.test_case "expected classes" `Quick test_plan_expectations;
          Alcotest.test_case "expected classes per algorithm" `Quick
            test_plan_expectations_per_algo;
          Alcotest.test_case "errors" `Quick test_plan_errors;
          Alcotest.test_case "trace events deterministic" `Quick
            test_plan_trace_events_deterministic;
        ] );
      ( "classify",
        [ Alcotest.test_case "counter deltas" `Quick test_classify_counters ]
      );
      ( "lint",
        [
          Alcotest.test_case "agreeing trace" `Quick test_chaos_rule_clean;
          Alcotest.test_case "mismatched verdict" `Quick
            test_chaos_rule_mismatch;
          Alcotest.test_case "unbacked verdict" `Quick
            test_chaos_rule_unbacked_verdict;
          Alcotest.test_case "announced parasitic divergence" `Quick
            test_chaos_rule_announced_parasitic_divergence;
          Alcotest.test_case "faultless traces exempt" `Quick
            test_chaos_rule_ignores_faultless_traces;
        ] );
      ( "run",
        [
          Alcotest.test_case "crash-holding-locks starves peers" `Quick
            test_run_crash_holding_locks;
          Alcotest.test_case "parasitic-only leaves peers progressing" `Quick
            test_run_parasitic_only;
          Alcotest.test_case "dstm peers survive the crashed lock holder"
            `Quick test_run_crash_holding_locks_dstm;
          Alcotest.test_case "global-lock peers starve behind the crash"
            `Quick test_run_crash_holding_locks_glock;
          Alcotest.test_case "global-lock: clean crash strands the serializer"
            `Quick test_run_crash_clean_glock;
          Alcotest.test_case "dstm isolates the parasite" `Quick
            test_run_parasitic_dstm;
          Alcotest.test_case "global-lock parasite starves its peers" `Quick
            test_run_parasitic_glock;
          Alcotest.test_case "per-algorithm traces pass the analyzer" `Quick
            test_run_per_algo_traces_lint_clean;
          Alcotest.test_case "trace byte-identical across runs" `Quick
            test_run_trace_byte_identical;
          Alcotest.test_case "trace passes the analyzer" `Quick
            test_run_trace_lints_clean;
          Alcotest.test_case "onset waits for the takeover" `Quick
            test_onset_waits_for_takeover;
          Alcotest.test_case "the table counts aborts by cause" `Quick
            test_run_abort_causes;
        ] );
      ( "blame",
        [
          Alcotest.test_case "tl2 crash draws a star on the corpse" `Quick
            test_blame_run_star_tl2;
          Alcotest.test_case "dstm crash leaves no shape" `Quick
            test_blame_run_none_dstm;
          Alcotest.test_case "evidence instants annotate the trace" `Quick
            test_blame_run_trace_evidence;
          Alcotest.test_case "classified form is run-to-run stable" `Quick
            test_blame_run_deterministic;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_plan_deterministic; prop_plan_roundtrips ] );
    ]
