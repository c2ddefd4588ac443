(* The benchmark's own tests: the layer ledger reconciles on a one-domain
   traced replay (on two seeds), and every correctness check the
   benchmark applies rejects an output perturbed to be wrong. *)

open Perfbench
module Server = Tm_serve.Server
module Workload = Tm_serve.Workload

let failures = ref 0

let passed = ref 0

let expect name cond =
  if cond then incr passed
  else begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let is_ok = Result.is_ok
let is_error = Result.is_error

(* Small versions of the three serve workloads: the same profiles,
   arrival clock and admission, a few thousand requests, a table small
   enough for a test. *)
let small (sv : E2e.serve) ~seed =
  let sv =
    {
      sv with
      E2e.sv_keys = min sv.E2e.sv_keys 4096;
      sv_clients = 500;
      sv_ops = 4;
    }
  in
  E2e.serve_config sv ~seed ~arrival_seed:seed ~domains:1

let serves =
  [
    ("read", E2e.serve_read);
    ("longtxn", E2e.serve_longtxn);
    ("writeopen", E2e.serve_write_open);
  ]

(* Self times of hand-made spans: a parent with one child. *)
let test_self_totals () =
  let s = Ledger.spans 4 in
  Ledger.record s ~id:0 ~layer:0 0 10 0.0 3.0;
  Ledger.record s ~id:0 ~layer:2 12 15 3.0 5.0;
  Ledger.record s ~id:0 ~layer:1 10 20 3.0 9.0;
  let ns, words = Ledger.self_totals s ~parent:Ledger.serve_parent in
  expect "self time subtracts nested spans" (ns = [| 10.; 7.; 3.; 0. |]);
  expect "self words subtract nested spans" (words = [| 3.; 4.; 2.; 0. |])

(* The corrections: a wall time keeps its unstolen part and is scaled,
   a CPU time is only scaled, a rate is divided by the wall correction,
   a count is left alone; the measured medians ignore the weights. *)
let test_corrections () =
  let jobs =
    [
      (2.0, { E2e.scale = 0.5; steal = 0.2 });
      (4.0, { E2e.scale = 0.5; steal = 0.2 });
      (100.0, { E2e.scale = 0.5; steal = 0.2 });
    ]
  in
  let specs =
    List.map
      (fun (name, kind) -> (name, "u", kind, Fun.id))
      [ ("wall", E2e.Wall); ("cpu", E2e.Cpu); ("rate", E2e.Rate);
        ("count", E2e.Count) ]
  in
  let corrected, measured = E2e.medians jobs specs in
  let close ms expected =
    List.for_all2
      (fun x e -> Float.abs (x.E2e.m_value -. e) < 1e-9)
      ms expected
  in
  expect "corrections of wall, CPU, rate and count"
    (close corrected [ 1.6; 2.0; 10.0; 4.0 ]);
  expect "measured medians are uncorrected"
    (close measured [ 4.0; 4.0; 4.0; 4.0 ]);
  expect "a scale is the nominal pass time over the mean point"
    (Calib.between (Calib.nominal_s /. 2.0) (Calib.nominal_s *. 1.5) = 1.0)

let test_reconcile ~seed =
  List.iter
    (fun (name, sv) ->
      let cfg = small sv ~seed in
      let r = Ledger.replay ~traced:true cfg in
      let l = Ledger.ledger_of r in
      let label what = Printf.sprintf "%s seed %d: %s" name seed what in
      expect (label "span words and self times reconcile")
        (is_ok (Ledger.reconcile l r));
      expect (label "replay matches the sequential spec")
        (is_ok
           (Checks.matches_spec ~spec:(Ledger.spec_dump cfg) r.Ledger.rp_dump));
      (* Falsification: a span whose words are misread, and a lost
         span, must both break the reconciliation. *)
      let s = r.Ledger.rp_spans.(0) in
      let w = Float.Array.get s.Ledger.w1 0 in
      Float.Array.set s.Ledger.w1 0 (w +. 1.0);
      expect (label "a misread span is caught")
        (is_error (Ledger.reconcile (Ledger.ledger_of r) r));
      Float.Array.set s.Ledger.w1 0 w;
      s.Ledger.n <- s.Ledger.n - 1;
      expect (label "a lost span is caught")
        (is_error (Ledger.reconcile (Ledger.ledger_of r) r)))
    serves

let test_serve_checks ~seed =
  List.iter
    (fun (name, sv) ->
      let cfg = small sv ~seed in
      let label what = Printf.sprintf "%s seed %d: %s" name seed what in
      let a = Server.run cfg and b = Server.run cfg in
      expect (label "served outcome passes") (is_ok (Checks.serve_outcome a));
      let reference = Server.to_json a in
      expect (label "canonical documents agree")
        (is_ok (Checks.canonical_equal ~reference (Server.to_json b)));
      expect (label "a different canonical document is caught")
        (is_error
           (Checks.canonical_equal ~reference
              (Server.to_json
                 { b with Server.s_admitted = b.Server.s_admitted - 1 })));
      expect (label "a non-conserving outcome is caught")
        (is_error (Checks.serve_outcome { a with Server.s_conserved = false }));
      expect (label "a journal mismatch is caught")
        (is_error
           (Checks.serve_outcome { a with Server.s_journal_ok = false }));
      expect (label "a lost request is caught")
        (is_error
           (Checks.serve_outcome
              { a with Server.s_shed = a.Server.s_shed + 1 }));
      let dump = (Ledger.replay ~traced:false cfg).Ledger.rp_dump in
      expect (label "replayed store conserves")
        (is_ok (Checks.conserved_dump dump));
      dump.(1) <- dump.(1) + 1;
      expect (label "a non-conserving store dump is caught")
        (is_error (Checks.conserved_dump dump)))
    serves

let test_pipeline_checks ~seed =
  let grid =
    Tm_sim.Sweep.grid
      ~tms:(List.filteri (fun i _ -> i < 4) Tm_impl.Registry.all)
      ~patterns:(Tm_sim.Sweep.fault_patterns ~steps:500 ())
      ~seeds:[ seed; seed + 1 ] ()
  in
  let sequential = Tm_sim.Sweep.to_json (Tm_sim.Sweep.run grid) in
  let pooled =
    Tm_sim.Pool.with_pool ~jobs:2 (fun pool ->
        Tm_sim.Sweep.to_json (Tm_sim.Sweep.run ~pool grid))
  in
  let label what = Printf.sprintf "pipeline seed %d: %s" seed what in
  expect (label "sweep document is the same on 1 and 2 jobs")
    (is_ok (Checks.sweep_deterministic ~sequential ~pooled));
  let perturbed = Bytes.of_string pooled in
  let i = Bytes.index perturbed ':' + 1 in
  Bytes.set perturbed i (if Bytes.get perturbed i = '1' then '2' else '1');
  expect (label "a perturbed sweep document is caught")
    (is_error
       (Checks.sweep_deterministic ~sequential
          ~pooled:(Bytes.to_string perturbed)))

let test_model_check () =
  let mc = E2e.model_check () in
  let expected = Checks.tl2_depth10_histories in
  expect "model check of tl2 at depth 10 passes"
    (is_ok
       (Checks.model_check ~expected ~histories:mc.E2e.histories
          ~non_opaque:mc.E2e.non_opaque));
  expect "a wrong history count is caught"
    (is_error
       (Checks.model_check ~expected ~histories:(expected - 1) ~non_opaque:0));
  expect "a non-opaque history is caught"
    (is_error (Checks.model_check ~expected ~histories:expected ~non_opaque:1))

let () =
  test_self_totals ();
  test_corrections ();
  (* Seed 1 is the benchmark's default; seed 2 is one nobody tuned for. *)
  List.iter
    (fun seed ->
      test_reconcile ~seed;
      test_serve_checks ~seed;
      test_pipeline_checks ~seed)
    [ 1; 2 ];
  test_model_check ();
  Printf.printf "perfbench self-tests: %d passed, %d failed\n" !passed
    !failures;
  if !failures > 0 then exit 1
