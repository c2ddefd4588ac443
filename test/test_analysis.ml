(* The lint engine: vector clocks, the history/lasso/trace analyzers on
   clean corpora (zero findings) and on seeded violations (the right rule
   fires), rule selection, and the findings JSON document. *)

open Tm_history
module An = Tm_analysis
module Tev = Tm_trace.Trace_event

let rules_of fs = List.sort_uniq compare (List.map (fun f -> f.An.Finding.rule) fs)

let has_rule r fs = List.mem r (rules_of fs)

let check_clean what fs =
  Alcotest.(check (list string)) (what ^ ": no findings") [] (rules_of fs)

(* ------------------------------------------------------------------ *)
(* Vector clocks. *)

let test_vclock () =
  let module V = An.Vclock in
  let a = V.tick (V.tick V.zero 1) 1 in
  let b = V.tick V.zero 2 in
  Alcotest.(check int) "tick counts" 2 (V.get a 1);
  Alcotest.(check int) "absent is 0" 0 (V.get a 2);
  Alcotest.(check bool) "zero <= anything" true (V.leq V.zero a);
  Alcotest.(check bool) "a </= b" false (V.leq a b);
  Alcotest.(check bool) "independent ticks are concurrent" true
    (V.concurrent a b);
  let j = V.join a b in
  Alcotest.(check bool) "a <= join a b" true (V.leq a j);
  Alcotest.(check bool) "b <= join a b" true (V.leq b j);
  Alcotest.(check bool) "join is lub" true
    (V.equal j (V.join b a));
  Alcotest.(check bool) "not concurrent with own join" false
    (V.concurrent a j && V.concurrent b j)

(* ------------------------------------------------------------------ *)
(* Generators (same shape as test_history's). *)

let gen_invocation =
  QCheck2.Gen.(
    oneof
      [
        map (fun x -> Event.Read x) (int_bound 3);
        map2 (fun x v -> Event.Write (x, v)) (int_bound 3) (int_bound 5);
        return Event.Try_commit;
      ])

let gen_response_for inv =
  QCheck2.Gen.(
    match inv with
    | Event.Read _ ->
        oneof
          [ map (fun v -> Event.Value v) (int_bound 5); return Event.Aborted ]
    | Event.Write _ -> oneofl [ Event.Ok_written; Event.Aborted ]
    | Event.Try_commit -> oneofl [ Event.Committed; Event.Aborted ])

let gen_history =
  QCheck2.Gen.(
    let* nprocs = int_range 1 4 in
    let* nsteps = int_range 0 40 in
    let rec go pending acc n =
      if n = 0 then return (List.rev acc)
      else
        let* p = int_range 1 nprocs in
        match List.assoc_opt p pending with
        | None ->
            let* inv = gen_invocation in
            go ((p, inv) :: pending) (Event.Inv (p, inv) :: acc) (n - 1)
        | Some inv ->
            let* res = gen_response_for inv in
            go
              (List.remove_assoc p pending)
              (Event.Res (p, res) :: acc)
              (n - 1)
    in
    let* es = go [] [] nsteps in
    return (History.of_events es))

(* ------------------------------------------------------------------ *)
(* History lints: clean corpora. *)

let prop_generated_histories_clean =
  QCheck2.Test.make ~count:300 ~name:"well-formed histories lint clean"
    gen_history (fun h ->
      An.Engine.run_history ~subject:"gen" h = [])

let test_figures_clean () =
  List.iter
    (fun (name, h) ->
      check_clean name (An.Engine.run_history ~subject:name h))
    Figures.all_finite;
  List.iter
    (fun (name, l) -> check_clean name (An.Engine.run_lasso ~subject:name l))
    Figures.all_lassos

let test_runner_histories_clean () =
  List.iter
    (fun entry ->
      let spec =
        Tm_sim.Runner.spec ~nprocs:3 ~ntvars:2 ~steps:400 ~seed:11
          ~sched:Tm_sim.Runner.Uniform ()
      in
      let o = Tm_sim.Runner.run entry spec in
      check_clean entry.Tm_impl.Registry.entry_name
        (An.Engine.run_history ~subject:entry.Tm_impl.Registry.entry_name
           o.Tm_sim.Runner.history))
    Tm_impl.Registry.all

(* ------------------------------------------------------------------ *)
(* History lints: seeded violations. *)

(* Duplicating a response always leaves the second copy orphaned. *)
let prop_duplicated_response_flagged =
  QCheck2.Test.make ~count:300 ~name:"duplicated response -> wf-orphan-response"
    gen_history (fun h ->
      let es = History.events h in
      match List.find_opt Event.is_response es with
      | None -> QCheck2.assume_fail ()
      | Some r ->
          let rec dup = function
            | [] -> []
            | e :: rest when e = r -> e :: r :: rest
            | e :: rest -> e :: dup rest
          in
          has_rule "wf-orphan-response"
            (An.Engine.run_history ~subject:"mut"
               (History.of_events (dup es))))

(* Dropping a response whose process appears again later always breaks
   alternation at that later invocation. *)
let prop_dropped_response_flagged =
  QCheck2.Test.make ~count:300 ~name:"dropped response -> wf-alternation"
    gen_history (fun h ->
      let es = History.events h in
      let arr = Array.of_list es in
      let n = Array.length arr in
      let victim =
        let rec find i =
          if i >= n then None
          else
            let p = Event.proc arr.(i) in
            if
              Event.is_response arr.(i)
              && List.exists
                   (fun j -> Event.proc arr.(j) = p && Event.is_invocation arr.(j))
                   (List.init (n - i - 1) (fun k -> i + 1 + k))
            then Some i
            else find (i + 1)
        in
        find 0
      in
      match victim with
      | None -> QCheck2.assume_fail ()
      | Some i ->
          let es' = List.filteri (fun j _ -> j <> i) es in
          has_rule "wf-alternation"
            (An.Engine.run_history ~subject:"mut" (History.of_events es')))

(* Replacing a matched response with one of the wrong kind. *)
let prop_wrong_response_kind_flagged =
  QCheck2.Test.make ~count:300 ~name:"wrong response kind -> wf-response-match"
    gen_history (fun h ->
      let es = History.events h in
      let pending = Hashtbl.create 8 in
      let target = ref None in
      List.iteri
        (fun i e ->
          match e with
          | Event.Inv (p, inv) -> Hashtbl.replace pending p inv
          | Event.Res (p, r) -> (
              match Hashtbl.find_opt pending p with
              | Some inv when Event.matches inv r && !target = None ->
                  Hashtbl.remove pending p;
                  target := Some (i, p, inv)
              | _ -> Hashtbl.remove pending p))
        es;
      match !target with
      | None -> QCheck2.assume_fail ()
      | Some (i, p, inv) ->
          let wrong =
            match inv with
            | Event.Read _ -> Event.Committed
            | Event.Write _ -> Event.Value 0
            | Event.Try_commit -> Event.Ok_written
          in
          let es' =
            List.mapi
              (fun j e -> if j = i then Event.Res (p, wrong) else e)
              es
          in
          has_rule "wf-response-match"
            (An.Engine.run_history ~subject:"mut" (History.of_events es')))

let dummy_txn ~proc ~seq ~first_pos ~last_pos =
  {
    Transaction.proc;
    seq;
    first_pos;
    last_pos;
    events = [];
    ops = [];
    status = Transaction.Live;
    attempted_commit = false;
  }

let test_duplicate_txn_id_flagged () =
  let txns =
    [
      dummy_txn ~proc:1 ~seq:0 ~first_pos:0 ~last_pos:1;
      dummy_txn ~proc:1 ~seq:0 ~first_pos:2 ~last_pos:3;
    ]
  in
  Alcotest.(check bool) "txn-unique-id fires" true
    (has_rule "txn-unique-id"
       (An.History_lint.check_transactions ~subject:"fixture" txns))

let test_txn_interval_flagged () =
  let overlapping =
    [
      dummy_txn ~proc:1 ~seq:0 ~first_pos:0 ~last_pos:5;
      dummy_txn ~proc:1 ~seq:1 ~first_pos:4 ~last_pos:8;
    ]
  in
  Alcotest.(check bool) "overlap fires txn-interval" true
    (has_rule "txn-interval"
       (An.History_lint.check_transactions ~subject:"fixture" overlapping));
  let backwards = [ dummy_txn ~proc:2 ~seq:0 ~first_pos:9 ~last_pos:3 ] in
  Alcotest.(check bool) "backwards interval fires txn-interval" true
    (has_rule "txn-interval"
       (An.History_lint.check_transactions ~subject:"fixture" backwards));
  let clean =
    [
      dummy_txn ~proc:1 ~seq:0 ~first_pos:0 ~last_pos:3;
      dummy_txn ~proc:1 ~seq:1 ~first_pos:4 ~last_pos:8;
      dummy_txn ~proc:2 ~seq:0 ~first_pos:1 ~last_pos:6;
    ]
  in
  check_clean "disjoint intervals"
    (An.History_lint.check_transactions ~subject:"fixture" clean)

(* ------------------------------------------------------------------ *)
(* Trace lints. *)

let ev ?(pid = 0) ?(args = []) ?(phase = Tev.Instant) ~ts ~tid ~cat name =
  { Tev.ts; pid; tid; cat; name; phase; args }

let acquire ~ts ~tid x =
  ev ~ts ~tid ~cat:Tev.Lock ~args:[ ("tvar", Tev.Int x) ] "acquire"

let release ~ts ~tid x =
  ev ~ts ~tid ~cat:Tev.Lock ~args:[ ("tvar", Tev.Int x) ] "release"

let publish ~ts ~tid x =
  ev ~ts ~tid ~cat:Tev.Txn ~args:[ ("tvar", Tev.Int x) ] "publish"

let attempt_end ~ts ~tid =
  ev ~ts ~tid ~cat:Tev.Txn ~phase:Tev.Span_end
    ~args:[ ("outcome", Tev.Str "commit") ]
    "attempt"

(* A clean two-domain TL2 commit pair: domain 1 commits x0,x1; then
   domain 2 does the same, with the happens-before edge through the lock
   releases. *)
let clean_trace =
  [
    acquire ~ts:0 ~tid:1 0;
    acquire ~ts:1 ~tid:1 1;
    publish ~ts:2 ~tid:1 0;
    release ~ts:3 ~tid:1 0;
    publish ~ts:4 ~tid:1 1;
    release ~ts:5 ~tid:1 1;
    attempt_end ~ts:6 ~tid:1;
    acquire ~ts:7 ~tid:2 0;
    acquire ~ts:8 ~tid:2 1;
    publish ~ts:9 ~tid:2 0;
    release ~ts:10 ~tid:2 0;
    publish ~ts:11 ~tid:2 1;
    release ~ts:12 ~tid:2 1;
    attempt_end ~ts:13 ~tid:2;
  ]

let lint tr = An.Engine.run_trace ~subject:"fixture" tr

let test_clean_trace () =
  check_clean "clean protocol trace" (lint clean_trace);
  (* Lock-order edges are recorded even when nothing is wrong. *)
  Alcotest.(check (list (pair int int)))
    "edges" [ (0, 1) ]
    (An.Trace_lint.lock_order_edges clean_trace)

let test_lock_overlap () =
  (* Domain 2 acquires x0 before domain 1 released it. *)
  let tr =
    [
      acquire ~ts:0 ~tid:1 0;
      acquire ~ts:1 ~tid:2 0;
      release ~ts:2 ~tid:1 0;
      release ~ts:3 ~tid:2 0;
      attempt_end ~ts:4 ~tid:1;
      attempt_end ~ts:5 ~tid:2;
    ]
  in
  Alcotest.(check bool) "lock-overlap fires" true
    (has_rule "lock-overlap" (lint tr))

let test_unlock_without_lock () =
  let tr = [ release ~ts:0 ~tid:1 3; attempt_end ~ts:1 ~tid:1 ] in
  Alcotest.(check (list string))
    "only unlock-without-lock" [ "unlock-without-lock" ]
    (rules_of (lint tr))

let test_publish_without_lock () =
  let tr = [ publish ~ts:0 ~tid:1 2; attempt_end ~ts:1 ~tid:1 ] in
  Alcotest.(check bool) "publish-without-lock fires" true
    (has_rule "publish-without-lock" (lint tr))

let test_acquire_after_publish () =
  let tr =
    [
      acquire ~ts:0 ~tid:1 0;
      publish ~ts:1 ~tid:1 0;
      acquire ~ts:2 ~tid:1 1;
      release ~ts:3 ~tid:1 0;
      release ~ts:4 ~tid:1 1;
      attempt_end ~ts:5 ~tid:1;
    ]
  in
  Alcotest.(check bool) "acquire-after-publish fires" true
    (has_rule "acquire-after-publish" (lint tr))

let test_lock_leak_and_hb_race () =
  (* Drop domain 1's release: the attempt leaks its lock, and without the
     release -> acquire edge domain 2's publish is concurrent with domain
     1's — the vector clocks expose both. *)
  let tr =
    [
      acquire ~ts:0 ~tid:1 0;
      publish ~ts:1 ~tid:1 0;
      attempt_end ~ts:2 ~tid:1;
      acquire ~ts:3 ~tid:2 0;
      publish ~ts:4 ~tid:2 0;
      release ~ts:5 ~tid:2 0;
      attempt_end ~ts:6 ~tid:2;
    ]
  in
  let fs = lint tr in
  Alcotest.(check bool) "lock-leak fires" true (has_rule "lock-leak" fs);
  Alcotest.(check bool) "hb-race fires" true (has_rule "hb-race" fs);
  (* Restoring the release clears both. *)
  let fixed =
    [
      acquire ~ts:0 ~tid:1 0;
      publish ~ts:1 ~tid:1 0;
      release ~ts:2 ~tid:1 0;
      attempt_end ~ts:3 ~tid:1;
      acquire ~ts:4 ~tid:2 0;
      publish ~ts:5 ~tid:2 0;
      release ~ts:6 ~tid:2 0;
      attempt_end ~ts:7 ~tid:2;
    ]
  in
  check_clean "with the release restored" (lint fixed)

let test_trace_end_leak_is_warning () =
  let tr = [ acquire ~ts:0 ~tid:1 0 ] in
  match lint tr with
  | [ f ] ->
      Alcotest.(check string) "rule" "lock-leak" f.An.Finding.rule;
      Alcotest.(check string) "severity" "warning"
        (An.Finding.severity_label f.An.Finding.severity)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_lock_order_cycle () =
  (* Domain 1 takes 0 then 1; domain 2 (later, no overlap) takes 1 then
     0: the classic deadlock shape, visible only in the order graph. *)
  let tr =
    [
      acquire ~ts:0 ~tid:1 0;
      acquire ~ts:1 ~tid:1 1;
      release ~ts:2 ~tid:1 1;
      release ~ts:3 ~tid:1 0;
      attempt_end ~ts:4 ~tid:1;
      acquire ~ts:5 ~tid:2 1;
      acquire ~ts:6 ~tid:2 0;
      release ~ts:7 ~tid:2 0;
      release ~ts:8 ~tid:2 1;
      attempt_end ~ts:9 ~tid:2;
    ]
  in
  let fs = lint tr in
  Alcotest.(check (list string)) "only the cycle" [ "lock-order-cycle" ]
    (rules_of fs)

let test_lanes_are_independent () =
  (* The same tid leaking in pid-lane 0 must not contaminate lane 1. *)
  let leak = [ acquire ~ts:0 ~tid:1 0 ] in
  let clean_lane = List.map (fun e -> { e with Tev.pid = 1 }) clean_trace in
  let fs = lint (leak @ clean_lane) in
  Alcotest.(check (list string)) "one warning from lane 0" [ "lock-leak" ]
    (rules_of fs)

(* The real runtime, multicore, traced: the protocol analyzers must come
   up empty, and TL2's canonical lock order must make every order-graph
   edge ascending. *)
let test_stm_multicore_trace_clean () =
  let module Stm = Tm_stm.Stm in
  let n = 4 in
  let accounts = Array.init n (fun _ -> Stm.tvar 100) in
  Stm.Trace.start ~capacity:(1 lsl 16) ();
  let worker k () =
    for i = 1 to 300 do
      let src = (i * (k + 1)) mod n in
      let dst = (i + k) mod n in
      Stm.atomically (fun () ->
          let v = Stm.read accounts.(src) in
          Stm.write accounts.(src) (v - 1);
          Stm.write accounts.(dst) (Stm.read accounts.(dst) + 1))
    done
  in
  let domains = List.init 4 (fun k -> Domain.spawn (worker k)) in
  List.iter Domain.join domains;
  Stm.Trace.stop ();
  Alcotest.(check int) "no ring truncation" 0 (Stm.Trace.dropped ());
  let events = Stm.Trace.events () in
  Alcotest.(check bool) "trace is non-trivial" true
    (List.length events > 100);
  check_clean "real multicore commit protocol"
    (An.Engine.run_trace ~subject:"stm" events);
  Alcotest.(check bool) "canonical order: every edge ascends" true
    (List.for_all (fun (a, b) -> a < b)
       (An.Trace_lint.lock_order_edges events))

(* ------------------------------------------------------------------ *)
(* The blame rule: blame-evidence instants must agree with the chaos
   verdicts in the same trace, and a starving domain may not pin its
   starvation on a fault-free progressing peer. *)

let chaos_fault ~ts ~tid name = Tev.instant ~ts ~tid Tev.Fault name []

let chaos_verdict ~ts ~tid cls =
  Tev.instant ~ts ~tid Tev.Monitor "chaos-verdict"
    [ ("class", Tev.Str cls); ("expected", Tev.Str cls) ]

let blame_evidence ~ts ~tid ev =
  Tev.instant ~ts ~tid Tev.Monitor "blame-evidence"
    [ ("evidence", Tev.Str ev); ("shape", Tev.Str "star:0") ]

let run_blame_rule events =
  An.Engine.run_trace ~rules:[ "blame" ] ~subject:"fixture" events

let blame_fixture =
  [
    chaos_fault ~ts:10 ~tid:0 "chaos-crash";
    chaos_verdict ~ts:100 ~tid:0 "crashed";
    chaos_verdict ~ts:100 ~tid:1 "starving";
    chaos_verdict ~ts:100 ~tid:2 "progressing";
    blame_evidence ~ts:100 ~tid:0 "crashed";
    blame_evidence ~ts:100 ~tid:1 "starved-by:0";
    blame_evidence ~ts:100 ~tid:2 "progressing";
  ]

let test_blame_rule_clean () =
  check_clean "agreeing evidence" (run_blame_rule blame_fixture)

let test_blame_rule_falsified_evidence () =
  (* The CI falsification gate in miniature: rewrite the starving
     domain's evidence to "progressing" and the rule must fire. *)
  let falsify e =
    if e.Tev.name = "blame-evidence" && e.Tev.tid = 1 then
      blame_evidence ~ts:e.Tev.ts ~tid:1 "progressing"
    else e
  in
  let fs = run_blame_rule (List.map falsify blame_fixture) in
  Alcotest.(check int) "one error" 1 (List.length fs);
  Alcotest.(check bool) "rule is blame" true (has_rule "blame" fs)

let test_blame_rule_verdict_mismatch () =
  (* The other direction: a crashed verdict whose evidence says
     something else. *)
  let fs =
    run_blame_rule
      [
        chaos_fault ~ts:10 ~tid:0 "chaos-crash";
        chaos_verdict ~ts:100 ~tid:0 "crashed";
        blame_evidence ~ts:100 ~tid:0 "contended";
      ]
  in
  Alcotest.(check int) "one error" 1 (List.length fs)

let test_blame_rule_scapegoat () =
  (* Domain 1 starves and pins domain 0 — but domain 0 is fault-free
     and progressing, so the attribution slanders a healthy peer. *)
  let fs =
    run_blame_rule
      [
        chaos_verdict ~ts:100 ~tid:0 "progressing";
        chaos_verdict ~ts:100 ~tid:1 "starving";
        blame_evidence ~ts:100 ~tid:0 "progressing";
        blame_evidence ~ts:100 ~tid:1 "starved-by:0";
      ]
  in
  Alcotest.(check int) "one error" 1 (List.length fs);
  (* The same pin is legitimate once domain 0 carries an injected
     fault (a parasite is "progressing" to nobody). *)
  check_clean "pinning a faulty domain is allowed"
    (run_blame_rule
       [
         chaos_fault ~ts:10 ~tid:0 "chaos-parasitic";
         chaos_verdict ~ts:100 ~tid:0 "parasitic";
         chaos_verdict ~ts:100 ~tid:1 "starving";
         blame_evidence ~ts:100 ~tid:0 "parasitic";
         blame_evidence ~ts:100 ~tid:1 "starved-by:0";
       ])

let test_blame_rule_exempt_without_evidence () =
  (* Traces with verdicts but no blame instants (blame not armed) are
     exempt. *)
  check_clean "no evidence, no findings"
    (run_blame_rule
       [
         chaos_fault ~ts:10 ~tid:0 "chaos-crash";
         chaos_verdict ~ts:100 ~tid:0 "crashed";
         chaos_verdict ~ts:100 ~tid:1 "starving";
       ])

(* ------------------------------------------------------------------ *)
(* Engine: selection, filtering, exit code. *)

let test_rule_selection () =
  (match An.Engine.parse_selection An.Engine.rule_ids "all" with
  | Ok ids ->
      Alcotest.(check (list string)) "all = catalogue" An.Engine.rule_ids ids
  | Error m -> Alcotest.fail m);
  (match An.Engine.parse_selection An.Engine.rule_ids "hb-race, lock-leak" with
  | Ok ids -> Alcotest.(check (list string)) "split+trim"
                [ "hb-race"; "lock-leak" ] ids
  | Error m -> Alcotest.fail m);
  (match An.Engine.parse_selection An.Engine.rule_ids "no-such-rule" with
  | Ok _ -> Alcotest.fail "accepted an unknown rule"
  | Error _ -> ());
  (* Filtering: the overlap fixture reports nothing when only the cycle
     rule is selected. *)
  let tr =
    [
      acquire ~ts:0 ~tid:1 0;
      acquire ~ts:1 ~tid:2 0;
      release ~ts:2 ~tid:1 0;
      release ~ts:3 ~tid:2 0;
      attempt_end ~ts:4 ~tid:1;
      attempt_end ~ts:5 ~tid:2;
    ]
  in
  check_clean "filtered out"
    (An.Engine.run_trace ~rules:[ "lock-order-cycle" ] ~subject:"fixture" tr)

let test_exit_code () =
  Alcotest.(check int) "no findings -> 0" 0 (An.Engine.exit_code_at `Error []);
  let w =
    An.Finding.v ~rule:"lock-leak" ~severity:An.Finding.Warning ~subject:"s"
      "w"
  in
  let e =
    An.Finding.v ~rule:"hb-race" ~severity:An.Finding.Error ~subject:"s" "e"
  in
  Alcotest.(check int) "warnings alone -> 0" 0 (An.Engine.exit_code_at `Error [ w ]);
  Alcotest.(check int) "any error -> 1" 1 (An.Engine.exit_code_at `Error [ w; e ])

let test_findings_json () =
  let fs =
    [
      An.Finding.v ~rule:"hb-race" ~severity:An.Finding.Error ~subject:"t"
        ~location:(An.Finding.At_ts (4, 2))
        "msg \"quoted\"";
      An.Finding.v ~rule:"lock-leak" ~severity:An.Finding.Warning ~subject:"t"
        "w";
    ]
  in
  let json = An.Finding.list_to_json fs in
  Alcotest.(check string) "deterministic" json (An.Finding.list_to_json fs);
  let contains = Tm_test_util.Util.contains json in
  Alcotest.(check bool) "counts" true
    (contains "\"counts\":{\"error\":1,\"warning\":1,\"info\":0}");
  Alcotest.(check bool) "escaping" true (contains "msg \\\"quoted\\\"");
  (* Errors sort first. *)
  Alcotest.(check bool) "severity order" true
    (match List.sort An.Finding.compare fs with
    | f :: _ -> f.An.Finding.rule = "hb-race"
    | [] -> false)

(* Round-trip through the file formats the CLI consumes. *)
let test_history_file_lax_round_trip () =
  Tm_test_util.Util.with_temp_file ~suffix:".txt" (fun path ->
      (* An ill-formed event list: response with no invocation. *)
      Tm_test_util.Util.write_file path "res 1 commit\n";
      match Codec.history_of_string_lax (Tm_test_util.Util.read_file path) with
      | Error m -> Alcotest.failf "lax parse failed: %s" m
      | Ok h ->
          Alcotest.(check bool) "orphan response flagged" true
            (has_rule "wf-orphan-response"
               (An.Engine.run_history ~subject:"file" h));
          Alcotest.(check bool) "strict parser still rejects" true
            (match Codec.history_of_string "res 1 commit\n" with
            | Error _ -> true
            | Ok _ -> false))

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "analysis"
    [
      ("vclock", [ Alcotest.test_case "laws" `Quick test_vclock ]);
      ( "clean corpora",
        [
          Alcotest.test_case "figures" `Quick test_figures_clean;
          Alcotest.test_case "zoo runner histories" `Quick
            test_runner_histories_clean;
          Alcotest.test_case "real stm multicore trace" `Quick
            test_stm_multicore_trace_clean;
        ] );
      qsuite "history properties"
        [
          prop_generated_histories_clean;
          prop_duplicated_response_flagged;
          prop_dropped_response_flagged;
          prop_wrong_response_kind_flagged;
        ];
      ( "seeded history violations",
        [
          Alcotest.test_case "duplicate txn id" `Quick
            test_duplicate_txn_id_flagged;
          Alcotest.test_case "txn intervals" `Quick test_txn_interval_flagged;
        ] );
      ( "trace lints",
        [
          Alcotest.test_case "clean protocol trace" `Quick test_clean_trace;
          Alcotest.test_case "lock overlap" `Quick test_lock_overlap;
          Alcotest.test_case "unlock without lock" `Quick
            test_unlock_without_lock;
          Alcotest.test_case "publish without lock" `Quick
            test_publish_without_lock;
          Alcotest.test_case "acquire after publish" `Quick
            test_acquire_after_publish;
          Alcotest.test_case "lock leak + hb race" `Quick
            test_lock_leak_and_hb_race;
          Alcotest.test_case "trace-end leak is a warning" `Quick
            test_trace_end_leak_is_warning;
          Alcotest.test_case "lock-order cycle" `Quick test_lock_order_cycle;
          Alcotest.test_case "pid lanes independent" `Quick
            test_lanes_are_independent;
        ] );
      ( "blame rule",
        [
          Alcotest.test_case "agreeing evidence is clean" `Quick
            test_blame_rule_clean;
          Alcotest.test_case "falsified evidence fires" `Quick
            test_blame_rule_falsified_evidence;
          Alcotest.test_case "verdict/evidence mismatch fires" `Quick
            test_blame_rule_verdict_mismatch;
          Alcotest.test_case "scapegoating a healthy peer fires" `Quick
            test_blame_rule_scapegoat;
          Alcotest.test_case "traces without evidence exempt" `Quick
            test_blame_rule_exempt_without_evidence;
        ] );
      ( "engine",
        [
          Alcotest.test_case "rule selection" `Quick test_rule_selection;
          Alcotest.test_case "exit code" `Quick test_exit_code;
          Alcotest.test_case "findings JSON" `Quick test_findings_json;
          Alcotest.test_case "lax history file round-trip" `Quick
            test_history_file_lax_round_trip;
        ] );
    ]
