(* The reproduction harness: regenerates every figure and theorem-level
   claim of "On the Liveness of Transactional Memory" (PODC 2012) and
   prints paper-vs-measured verdicts, then runs bechamel timing benches.

   The sections live in one module per paper part (Paper_figures,
   Paper_theorems, Zoo, Ablations, Seam_costs, Static_analysis, Serving,
   Bechamel_suite) around Harness; this file keeps the section table,
   the [TM_BENCH_SECTIONS] filter and the summary.  See EXPERIMENTS.md
   for the experiment index and DESIGN.md for the design. *)

(* Every section of the harness, in run order, keyed for the
   [TM_BENCH_SECTIONS] filter: a comma-separated list of keys runs just
   those sections (e.g. TM_BENCH_SECTIONS=p9 in the CI bench job);
   unset or empty runs everything. *)
let bench_sections : (string * (unit -> unit)) list =
  [
    ("f1", Paper_figures.f1);
    ("f2", Paper_figures.f2);
    ("f3f4f8", Paper_figures.f3_f4_f8);
    ("f5f14", Paper_figures.liveness_figures);
    ("f15", Paper_figures.f15);
    ("f16", Paper_figures.f16);
    ("t1", Paper_theorems.t1);
    ("t2", Paper_theorems.t2);
    ("t3", Paper_theorems.t3);
    ("z1", Zoo.z1);
    ("z2", Zoo.z2);
    ("mv", Zoo.mv);
    ("fw", Zoo.fw);
    ("fw2", Zoo.fw2);
    ("fw3", Zoo.fw3);
    ("oq", Zoo.oq);
    ("p2a", Ablations.ablation);
    ("p2c", Ablations.scheduler_ablation);
    ("p2d", Ablations.abort_rate_ablation);
    ("p2b", Ablations.real_stm);
    ("p3", Ablations.p3_scaling);
    ("p4", Ablations.p4_parallel_sweep);
    ("seams", Seam_costs.p5_seam_costs);
    ("p6", Seam_costs.p6_analysis);
    ("p9", Ablations.p9_zoo_separation);
    ("p11", Static_analysis.p11_static_analysis);
    ("p12", Serving.p12_serve);
    ("p13", Serving.p13_loadcurve);
    ("bechamel", Bechamel_suite.bechamel_benches);
  ]

let () =
  Fmt.pr
    "Reproduction harness: On the Liveness of Transactional Memory (PODC \
     2012)@.";
  let enabled =
    match Sys.getenv_opt "TM_BENCH_SECTIONS" with
    | None | Some "" -> None
    | Some s ->
        let keys =
          String.split_on_char ',' s
          |> List.map String.trim
          |> List.filter (fun k -> k <> "")
        in
        List.iter
          (fun k ->
            if not (List.mem_assoc k bench_sections) then begin
              Fmt.epr "unknown bench section %S (try: %s)@." k
                (String.concat ", " (List.map fst bench_sections));
              exit 2
            end)
          keys;
        Some keys
  in
  (match enabled with
  | None -> ()
  | Some keys -> Fmt.pr "(sections filtered: %s)@." (String.concat ", " keys));
  List.iter
    (fun (key, run) ->
      match enabled with
      | None -> run ()
      | Some keys -> if List.mem key keys then run ())
    bench_sections;
  Fmt.pr "@.=== SUMMARY ===@.";
  let failures = !Harness.failures in
  if failures = 0 then Fmt.pr "all paper-vs-measured checks passed@."
  else Fmt.pr "%d MISMATCHES@." failures;
  exit (if failures = 0 then 0 else 1)
