(* P11: the static analyzer as a gate — tmstatic must find a clean
   checkout clean (zero error and warning findings over the whole tree;
   info findings, exports only tests use, are counted), run in
   interactive time (parsing and checking every scanned file well
   within a CI-friendly bound), and be deterministic (two runs produce
   byte-identical findings JSON).  See EXPERIMENTS.md §P11. *)

open Harness

let p11_static_analysis () =
  let module Sc = Tm_staticcheck.Checker in
  let module F = Tm_analysis.Finding in
  section "P11" "tmstatic: whole-tree static checks, runtime, determinism";
  match Sc.find_root () with
  | None ->
      check "repo root found from the bench cwd" ~paper:true ~measured:false
  | Some root ->
      let run_once () = time (fun () -> Sc.run ~root ()) in
      ignore (run_once ()) (* warm-up *);
      let r1, t1 = run_once () in
      let r2, t2 = run_once () in
      let t_best = min t1 t2 in
      (match (r1, r2) with
      | Ok a, Ok b ->
          let ja = F.list_to_json a.Sc.findings
          and jb = F.list_to_json b.Sc.findings in
          let count sev =
            List.length
              (List.filter (fun (f : F.t) -> f.F.severity = sev) a.Sc.findings)
          in
          let errors = count F.Error and info = count F.Info in
          let unused_warnings =
            List.length
              (List.filter
                 (fun (f : F.t) ->
                   f.F.severity = F.Warning && f.F.rule = "exported-unused")
                 a.Sc.findings)
          in
          Fmt.pr
            "  %d files scanned in %.3fs (best of 2), %d finding(s), %d \
             error(s), %d info@."
            a.Sc.files_scanned t_best
            (List.length a.Sc.findings)
            errors info;
          List.iter
            (fun (f : F.t) -> if f.F.severity <> F.Info then Fmt.pr "    %a@." F.pp f)
            a.Sc.findings;
          check "clean tree has zero error findings" ~paper:true
            ~measured:(errors = 0);
          check "clean tree has zero exported-unused warnings" ~paper:true
            ~measured:(unused_warnings = 0);
          check "whole-tree check runs in interactive time (< 5 s)"
            ~paper:true ~measured:(t_best < 5.0);
          check "two runs produce byte-identical findings JSON" ~paper:true
            ~measured:(ja = jb);
          check "the scan covers a real tree (>= 10 files)" ~paper:true
            ~measured:(a.Sc.files_scanned >= 10);
          write_result ~what:"static numbers" "BENCH_static.json"
            (Fmt.str
               "{\"experiment\":\"P11\",\"claim\":\"tmstatic gates the seam \
                discipline and dead surface: clean tree, interactive \
                runtime, deterministic output\",\"files_scanned\":%d,\"runtime_s\":%.3f,\
                \"findings\":%d,\"errors\":%d,\"warnings\":%d,\"info\":%d,\
                \"deterministic\":%b}"
               a.Sc.files_scanned t_best
               (List.length a.Sc.findings)
               errors (count F.Warning) info (ja = jb))
      | Error msg, _ | _, Error msg ->
          Fmt.pr "  static run failed: %s@." msg;
          check "static analyzer runs over the checkout" ~paper:true
            ~measured:false)
