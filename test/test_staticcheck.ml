(* Tests for the tmstatic analyzer (lib/staticcheck): per-rule fixture
   pairs (one clean, one violating file each), the machine-read seam
   contract, the allow escape hatch, rule selection, exit-code
   thresholds, and the two whole-tree gates the CI job leans on —
   zero error findings on a clean checkout and byte-identical JSON
   across runs. *)

module F = Tm_analysis.Finding
module Engine = Tm_analysis.Engine
module Sc = Tm_staticcheck.Checker
module Source = Tm_staticcheck.Source
module Seam = Tm_staticcheck.Seam

(* The fixture tree sits next to this file; resolve it both from the
   stanza's cwd (dune runtest: _build/default/test) and from the repo
   root (dune exec). *)
let fixture_dir =
  lazy
    (match
       List.find_opt Sys.file_exists
         [ "fixtures/static"; Filename.concat "test" "fixtures/static" ]
     with
    | Some d -> d
    | None -> Alcotest.fail "cannot locate test/fixtures/static")

let fixture name =
  let path = Filename.concat (Lazy.force fixture_dir) name in
  match Source.load ~subject:name path with
  | Ok src -> src
  | Error msg -> Alcotest.failf "fixture %s: %s" name msg

let count sev findings =
  List.length (List.filter (fun (f : F.t) -> f.F.severity = sev) findings)

let lines_of findings =
  List.filter_map
    (fun (f : F.t) ->
      match f.F.location with F.At_line l -> Some l | _ -> None)
    findings
  |> List.sort_uniq compare

let check_counts what ~errors ~warnings findings =
  Alcotest.(check int) (what ^ ": errors") errors (count F.Error findings);
  Alcotest.(check int)
    (what ^ ": warnings")
    warnings
    (count F.Warning findings)

(* --- the seam contract, parsed from miniature fixture sources --- *)

let mini_contract () =
  let vocab_src = fixture "contract_vocab.ml" in
  let facade_src = fixture "contract_facade.ml" in
  match
    (Seam.vocab_of_core vocab_src, Seam.contract_of_facade facade_src)
  with
  | Ok vocab, Ok contract ->
      (vocab, contract, Seam.helper_sites vocab vocab_src)
  | Error msg, _ | _, Error msg -> Alcotest.failf "mini contract: %s" msg

let test_contract_parses () =
  let vocab, contract, helpers = mini_contract () in
  Alcotest.(check (list string))
    "one vocabulary: sites, then causes"
    [
      "Begin"; "Read"; "Lock"; "Validate"; "Commit"; "Read_conflict";
      "Validation"; "Stolen";
    ]
    vocab;
  Alcotest.(check (list string)) "algos" [ "Mini" ] contract.Seam.c_algos;
  Alcotest.(check (list (pair string string)))
    "core dispatch"
    [ ("Mini", "Stm_mini") ]
    contract.Seam.c_core_files;
  Alcotest.(check (list (pair string (list string))))
    "helper sites"
    [ ("publish_all", [ "Lock" ]) ]
    helpers;
  match Seam.announced contract ~algo:"Mini" with
  | None -> Alcotest.fail "no Algo.sites announcement for Mini"
  | Some an ->
      Alcotest.(check (list string))
        "announced sites" [ "Read"; "Lock"; "Validation" ] an.Seam.an_sites

let contract_findings core =
  let vocab, contract, helpers = mini_contract () in
  Tm_staticcheck.Rule_contract.check ~vocab ~contract ~helpers
    ~facade:"contract_facade.ml"
    [ ("Mini", fixture core) ]

let test_contract_clean () =
  check_counts "clean core" ~errors:0 ~warnings:0
    (contract_findings "contract_core_clean.ml")

let test_contract_bad () =
  let findings = contract_findings "contract_core_bad.ml" in
  (* One unannounced site (Validate) and three announced sites never
     reached (Read, Lock, Validation). *)
  check_counts "bad core" ~errors:4 ~warnings:0 findings;
  let unannounced =
    List.filter
      (fun (f : F.t) -> f.F.subject = "contract_core_bad.ml")
      findings
  in
  Alcotest.(check int) "unannounced sited in core" 1 (List.length unannounced);
  Alcotest.(check (list int)) "at the emission line" [ 6 ]
    (lines_of unannounced)

(* --- seam-guard --- *)

let test_guard_clean () =
  check_counts "guard_clean" ~errors:0 ~warnings:0
    (Tm_staticcheck.Rule_guard.check (fixture "guard_clean.ml"))

let test_guard_bad () =
  let findings = Tm_staticcheck.Rule_guard.check (fixture "guard_bad.ml") in
  (* Obs.fire, Obs.note, Obs.decide twice — the allow-
     commented site is suppressed. *)
  check_counts "guard_bad" ~errors:4 ~warnings:0 findings;
  Alcotest.(check (list int)) "at each emission" [ 4; 6; 9; 11 ]
    (lines_of findings)

(* --- txn-purity --- *)

let test_purity_clean () =
  check_counts "purity_clean" ~errors:0 ~warnings:0
    (Tm_staticcheck.Rule_purity.check (fixture "purity_clean.ml"))

let test_purity_bad () =
  let findings = Tm_staticcheck.Rule_purity.check (fixture "purity_bad.ml") in
  (* Errors: print_endline, Random.int, Domain.spawn, Mutex.lock.
     Warnings: incr / Hashtbl.replace on state created outside. *)
  check_counts "purity_bad" ~errors:4 ~warnings:2 findings

(* --- armed-leak --- *)

let test_leak_clean () =
  check_counts "leak_clean" ~errors:0 ~warnings:0
    (Tm_staticcheck.Rule_leak.check (fixture "leak_clean.ml"))

let test_leak_bad () =
  let findings = Tm_staticcheck.Rule_leak.check (fixture "leak_bad.ml") in
  (* An Obs.subscribe with no disarm and a Trace.start that recover()
     does not stop; the allow-commented Stm_probe.install is
     suppressed. *)
  check_counts "leak_bad" ~errors:2 ~warnings:0 findings;
  Alcotest.(check (list int)) "at each install" [ 6; 10 ] (lines_of findings)

(* --- exported-unused: an interface, its own file, a user, a test --- *)

let unused_findings () =
  let path name = Filename.concat (Lazy.force fixture_dir) name in
  let load subject name =
    match Source.load ~subject (path name) with
    | Ok src -> src
    | Error msg -> Alcotest.failf "fixture %s: %s" name msg
  in
  let intf =
    match
      Source.interface ~subject:"lib/fx/unused_lib.mli" (path "unused_lib.mli")
    with
    | Ok intf -> intf
    | Error msg -> Alcotest.failf "fixture unused_lib.mli: %s" msg
  in
  Tm_staticcheck.Rule_unused.check ~interfaces:[ intf ]
    ~users:
      [
        load "lib/fx/unused_lib.ml" "unused_lib.ml";
        load "bin/unused_user.ml" "unused_user.ml";
        load "bin/unused_local.ml" "unused_local.ml";
        load "bin/unused_shadow.ml" "unused_shadow.ml";
        load "test/unused_test.ml" "unused_test.ml";
      ]
  |> List.sort F.compare

let unused_about name =
  List.filter
    (fun (f : F.t) ->
      String.starts_with ~prefix:(name ^ " ") f.F.message
      || String.starts_with ~prefix:("Unused_lib." ^ name ^ " ") f.F.message)
    (unused_findings ())

let test_unused_no_user () =
  let check name line =
    let fs = unused_about name in
    check_counts name ~errors:0 ~warnings:1 fs;
    Alcotest.(check (list int)) (name ^ " at its val") [ line ] (lines_of fs)
  in
  (* Its own file's uses do not count, nor does an allow without a
     reason, nor a bare name in a file that never opens the module; a
     nested module's val is qualified by that module. *)
  check "dead" 3;
  check "excused_without_reason" 12;
  check "Inner.inner_dead" 15;
  check "shadowed" 21

let test_unused_used_elsewhere () =
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ ": no finding") 0
        (List.length (unused_about name)))
    [
      "used_qualified";
      "used_aliased";
      "used_bare";
      "used_let_open";
      "used_local_open";
      "Inner.inner_used";
    ]

let test_unused_test_only () =
  match unused_about "test_only" with
  | [ f ] ->
      Alcotest.(check string) "info" "info" (F.severity_label f.F.severity);
      Alcotest.(check (list int)) "at its val" [ 7 ] (lines_of [ f ])
  | fs -> Alcotest.failf "test_only: %d findings" (List.length fs)

let test_unused_allowed () =
  Alcotest.(check int) "allow with a reason" 0
    (List.length (unused_about "excused"))

let test_unused_deterministic () =
  let a = F.list_to_json (unused_findings ())
  and b = F.list_to_json (unused_findings ()) in
  Alcotest.(check string) "byte-identical findings" a b;
  Alcotest.(check int) "four warnings and one info" 5
    (List.length (unused_findings ()))

(* --- rule selection and exit thresholds --- *)

let test_parse_selection () =
  (match Sc.parse_selection "all" with
  | Ok ids -> Alcotest.(check (list string)) "all" Sc.rule_ids ids
  | Error msg -> Alcotest.fail msg);
  (match Sc.parse_selection "seam-guard, txn-purity" with
  | Ok ids ->
      Alcotest.(check (list string))
        "subset"
        [ "seam-guard"; "txn-purity" ]
        ids
  | Error msg -> Alcotest.fail msg);
  match Sc.parse_selection "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        "names the unknown rule" true
        (contains msg "bogus" && contains msg "seam-guard")

let test_exit_code_at () =
  let f sev = F.v ~rule:"r" ~severity:sev ~subject:"s" "m" in
  let warn = [ f F.Warning ] and err = [ f F.Error; f F.Warning ] in
  Alcotest.(check int) "error level, warnings only" 0
    (Engine.exit_code_at `Error warn);
  Alcotest.(check int) "error level, error present" 1
    (Engine.exit_code_at `Error err);
  Alcotest.(check int) "warning level, warnings only" 1
    (Engine.exit_code_at `Warning warn);
  Alcotest.(check int) "never" 0 (Engine.exit_code_at `Never err);
  Alcotest.(check int) "empty" 0 (Engine.exit_code_at `Warning [])

(* --- the whole-tree gates --- *)

let repo_root () =
  match Sc.find_root () with
  | Some root -> root
  | None -> Alcotest.fail "cannot find the repo root from the test cwd"

let test_tree_is_clean () =
  let root = repo_root () in
  match Sc.run ~root () with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      (* Info findings (exports only tests use) are listed but do not
         count against a clean tree; only exported-unused emits them. *)
      let counted, info =
        List.partition (fun (f : F.t) -> f.F.severity <> F.Info)
          report.Sc.findings
      in
      List.iter (fun f -> Fmt.epr "unexpected: %a@." F.pp f) counted;
      Alcotest.(check int) "no findings on a clean tree" 0
        (List.length counted);
      Alcotest.(check (list string)) "info comes only from exported-unused" []
        (List.filter_map
           (fun (f : F.t) ->
             if f.F.rule = "exported-unused" then None else Some f.F.rule)
           info);
      Alcotest.(check bool)
        (Fmt.str "scanned a real tree (%d files)" report.Sc.files_scanned)
        true
        (report.Sc.files_scanned >= 10)

let test_tree_json_deterministic () =
  let root = repo_root () in
  let once () =
    match Sc.run ~root () with
    | Error msg -> Alcotest.fail msg
    | Ok report -> F.list_to_json report.Sc.findings
  in
  let a = once () and b = once () in
  Alcotest.(check string) "byte-identical JSON across runs" a b;
  let counts = "\"counts\":{\"error\":0,\"warning\":0,\"info\":" in
  let n = String.length counts and la = String.length a in
  let rec has i = i + n <= la && (String.sub a i n = counts || has (i + 1)) in
  Alcotest.(check bool) "clean-tree document: no errors, no warnings" true
    (has 0)

let test_rule_filter () =
  let root = repo_root () in
  match Sc.run ~rules:[ "armed-leak" ] ~root () with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      Alcotest.(check int) "leak rule alone is clean" 0
        (List.length report.Sc.findings)

let () =
  Alcotest.run "tm_staticcheck"
    [
      ( "seam-contract",
        [
          Alcotest.test_case "contract parses" `Quick test_contract_parses;
          Alcotest.test_case "clean core" `Quick test_contract_clean;
          Alcotest.test_case "violating core" `Quick test_contract_bad;
        ] );
      ( "seam-guard",
        [
          Alcotest.test_case "clean" `Quick test_guard_clean;
          Alcotest.test_case "violating" `Quick test_guard_bad;
        ] );
      ( "txn-purity",
        [
          Alcotest.test_case "clean" `Quick test_purity_clean;
          Alcotest.test_case "violating" `Quick test_purity_bad;
        ] );
      ( "armed-leak",
        [
          Alcotest.test_case "clean" `Quick test_leak_clean;
          Alcotest.test_case "violating" `Quick test_leak_bad;
        ] );
      ( "exported-unused",
        [
          Alcotest.test_case "no user warns at the val" `Quick
            test_unused_no_user;
          Alcotest.test_case "user elsewhere" `Quick test_unused_used_elsewhere;
          Alcotest.test_case "tests only is info" `Quick test_unused_test_only;
          Alcotest.test_case "allow with a reason" `Quick test_unused_allowed;
          Alcotest.test_case "deterministic" `Quick test_unused_deterministic;
        ] );
      ( "driver",
        [
          Alcotest.test_case "rule selection" `Quick test_parse_selection;
          Alcotest.test_case "exit thresholds" `Quick test_exit_code_at;
          Alcotest.test_case "tree is clean" `Quick test_tree_is_clean;
          Alcotest.test_case "JSON determinism" `Quick
            test_tree_json_deterministic;
          Alcotest.test_case "rule filter" `Quick test_rule_filter;
        ] );
    ]
