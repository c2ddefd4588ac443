(* P1: bechamel timing benches of the checkers, the adversary, the
   simulator and the STM. *)

open Tm_history
open Harness

let bechamel_benches () =
  section "P1" "bechamel timing benches (ns/run, OLS estimate)";
  let open Bechamel in
  let checker_history ntxns =
    let steps =
      List.concat
        (List.init ntxns (fun i ->
             let p = (i mod 3) + 1 in
             let x = i mod 4 in
             [ History.read p x 0; History.write p x 0; History.commit p ]))
    in
    History.steps steps
  in
  let h20 = checker_history 20 and h60 = checker_history 60 in
  let fig16 = Figures.fig16 in
  let adversary_entry = tm "fgp" in
  let sim_entry = tm "tl2" in
  let sim_spec =
    Runner.spec ~nprocs:3 ~ntvars:4 ~steps:500 ~seed:1
      ~sched:Runner.Uniform ()
  in
  let tests =
    [
      Test.make ~name:"opacity-check-fig16"
        (Staged.stage (fun () -> Tm_safety.Opacity.is_opaque fig16));
      Test.make ~name:"opacity-check-20txn"
        (Staged.stage (fun () -> Tm_safety.Opacity.is_opaque h20));
      Test.make ~name:"opacity-check-60txn"
        (Staged.stage (fun () -> Tm_safety.Opacity.is_opaque h60));
      Test.make ~name:"lint-history-60txn"
        (Staged.stage (fun () ->
             Tm_analysis.Engine.run_history ~subject:"bench" h60));
      Test.make ~name:"liveness-classify-fig7"
        (Staged.stage (fun () -> Tm_liveness.Property.verdict Figures.fig7));
      Test.make ~name:"adversary-round-fgp"
        (Staged.stage (fun () ->
             Adv.run ~rounds:1 adversary_entry
               Adv.Algorithm_1));
      Test.make ~name:"simulate-500-steps-tl2"
        (Staged.stage (fun () -> Runner.run sim_entry sim_spec));
      Test.make ~name:"fgp-fig15-enumeration"
        (Staged.stage (fun () ->
             assert (Tm_sim.Sweep.Exhaustive.fig15 ()).complete));
      Test.make ~name:"stm-atomically-increment"
        (let v = Stm.tvar 0 in
         Staged.stage (fun () ->
             Stm.atomically (fun () ->
                 Stm.write v (Stm.read v + 1))));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"tm" tests) in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, estimate) ->
      match Analyze.OLS.estimates estimate with
      | Some [ ns ] -> Fmt.pr "  %-42s %12.1f ns/run@." name ns
      | Some _ | None -> Fmt.pr "  %-42s (no estimate)@." name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)
