(* The multicore commands on the real Stm runtime: [chaos] injects a
   seeded fault plan and gates on the Figure-2 verdicts, [blame] reduces
   the who-aborted-whom graph to its classification, and [top] is the
   live dashboard. *)

open Cmdliner
open Cli_common

let chaos_cmd =
  let run list_scenarios algo scenario seed domains tvars warmup window format
      out trace telemetry telemetry_format =
    if list_scenarios then
      List.iter
        (fun s ->
          Fmt.pr "%-20s %s@." s
            (Option.value ~default:"" (Tm_chaos.Plan.scenario_doc s)))
        Tm_chaos.Plan.scenarios
    else
      chaos_session ~name:"chaos" ~algo ~scenario ~seed ~domains
        ~run:(fun on_sample plan ->
          Tm_chaos.Runner.run ~warmup ~window ?on_sample
            ~workload:(Tm_chaos.Runner.hot_set ~tvars) plan)
        ~render:(fun o ->
          match format with
          | `Table -> Fmt.pr "%a" Tm_chaos.Runner.pp_table o
          | `Json -> Fmt.pr "%s@." (Tm_chaos.Runner.to_json o))
        ~document:(fun o -> Tm_chaos.Runner.to_json o ^ "\n")
        ~note:(Fmt.epr "verdicts written to %s@.")
        ~out ?trace ~telemetry ~telemetry_format ()
  in
  let list_scenarios =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the fault scenarios and exit.")
  in
  let format =
    format_arg
      ~doc:
        "Verdicts on stdout as $(b,table) (plan schedule plus per-domain \
         verdict lines) or $(b,json) (the same document $(b,-o) writes)."
      ()
  in
  let out =
    out_arg ~doc:"Also write the verdict JSON document here (CI artifact)." ()
  in
  let trace =
    trace_arg
      ~doc:
        "Write the chaos trace here as Chrome trace_event JSON: the planned \
         fault schedule ($(b,Fault) instants on each domain's operation \
         clock) and the empirical verdict instants — byte-identical for a \
         fixed (scenario, seed, domains)."
      ()
  in
  let telemetry =
    telemetry_arg
      ~doc:
        "Export the run's telemetry here ($(b,-) for stdout): per-domain \
         chaos counters and the $(b,tm_liveness_class) / \
         $(b,tm_liveness_correct) gauges, scraped at both watchdog \
         samples; the final scrape's classes equal the printed verdicts."
      ()
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Inject a seeded fault plan into the real multicore Stm runtime, \
          watch per-domain progress counters, and gate on the expected \
          Figure-2 classes (crashed / parasitic / starving / progressing).  \
          Exits 1 on any verdict mismatch.")
    Term.(
      const run $ list_scenarios $ algo_arg () $ scenario_arg () $ seed_arg ()
      $ domains_arg () $ ntvars_arg () $ warmup_arg () $ window_arg ()
      $ format $ out $ trace $ telemetry $ telemetry_format_arg ())

(* Blame renderers.  The canonical document (JSON and DOT) carries the
   scenario identity, the verdict gate and the classification — shape
   plus per-domain verdict/evidence — and nothing else: raw edge
   weights of a real multicore run vary run to run, while the
   wide-margin structure [Blame_graph.classify] extracts does not, so
   two same-seed runs emit byte-identical documents (the CI determinism
   gate [cmp]s them).  The weighted graph itself is in the human table
   and the telemetry export. *)

module Bg = Tm_telemetry.Blame_graph

let blame_json (o : Tm_chaos.Runner.outcome) shape evidence =
  let plan = o.Tm_chaos.Runner.o_plan in
  let b = Buffer.create 512 in
  Printf.bprintf b
    "{\"scenario\":%S,\"algo\":%S,\"seed\":%d,\"domains\":%d,\"ok\":%b,\"shape\":%S,\"blame\":["
    plan.Tm_chaos.Plan.scenario
    (Tm_stm.Stm.Algo.name plan.Tm_chaos.Plan.algo)
    plan.Tm_chaos.Plan.seed plan.Tm_chaos.Plan.domains
    o.Tm_chaos.Runner.o_ok (Bg.shape_label shape);
  List.iteri
    (fun d (r : Tm_chaos.Runner.report) ->
      if d > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"domain\":%d,\"verdict\":%S,\"evidence\":%S}" d
        (Tm_liveness.Process_class.cls_label r.Tm_chaos.Runner.rep_observed)
        (Bg.evidence_label evidence.(d)))
    o.Tm_chaos.Runner.o_reports;
  Buffer.add_string b "]}";
  Buffer.contents b

let blame_dot (o : Tm_chaos.Runner.outcome) shape evidence =
  let plan = o.Tm_chaos.Runner.o_plan in
  let b = Buffer.create 512 in
  Printf.bprintf b "digraph blame {\n  rankdir=LR;\n";
  Printf.bprintf b "  label=\"%s/%s seed=%d shape=%s\";\n"
    plan.Tm_chaos.Plan.scenario
    (Tm_stm.Stm.Algo.name plan.Tm_chaos.Plan.algo)
    plan.Tm_chaos.Plan.seed (Bg.shape_label shape);
  let color r =
    match r.Tm_chaos.Runner.rep_observed with
    | Tm_liveness.Process_class.Crashed -> "gray"
    | Tm_liveness.Process_class.Parasitic -> "orange"
    | Tm_liveness.Process_class.Starving -> "red"
    | Tm_liveness.Process_class.Progressing -> "green"
  in
  List.iteri
    (fun d (r : Tm_chaos.Runner.report) ->
      Printf.bprintf b
        "  d%d [label=\"d%d\\n%s\\n%s\", style=filled, fillcolor=%s];\n" d d
        (Tm_liveness.Process_class.cls_label r.Tm_chaos.Runner.rep_observed)
        (Bg.evidence_label evidence.(d))
        (color r))
    o.Tm_chaos.Runner.o_reports;
  Array.iteri
    (fun d e ->
      match e with
      | Bg.E_starved_by a when a >= 0 -> Printf.bprintf b "  d%d -> d%d;\n" d a
      | _ -> ())
    evidence;
  (match shape with
  | Bg.Cycle ->
      Buffer.add_string b
        "  // mutual dominance among live domains (cycle)\n"
  | _ -> ());
  Buffer.add_string b "}\n";
  Buffer.contents b

let blame_table ppf (o : Tm_chaos.Runner.outcome) (g : Bg.t) shape evidence =
  Fmt.pf ppf "%a" Tm_chaos.Runner.pp_table o;
  Fmt.pf ppf "blame graph (events=%d, shape=%s):@." (Bg.clock g)
    (Bg.shape_label shape);
  List.iter
    (fun (v, a, n) ->
      let causes =
        String.concat ", "
          (List.map
             (fun (c, k) ->
               Fmt.str "%s=%d" (Tm_stm.Stm.Obs.cause_label c) k)
             (Bg.edge_causes g ~victim:v ~aggressor:a))
      in
      Fmt.pf ppf "  d%s -> d%s  %6d  [%s]@."
        (if v < 0 then "?" else string_of_int v)
        (if a < 0 then "?" else string_of_int a)
        n causes)
    (Bg.edges g);
  Fmt.pf ppf "watermarks:@.";
  for d = 0 to Bg.domains g - 1 do
    Fmt.pf ppf "  d%d  commits=%-8d last-commit=%-10d wait-age=%-10d %s@." d
      (Bg.commits g d) (Bg.last_commit g d) (Bg.wait_age g d)
      (Bg.evidence_label evidence.(d))
  done

(* The run's blame graph and its classification. *)
let classified (o : Tm_chaos.Runner.outcome) =
  match o.Tm_chaos.Runner.o_blame with
  | None -> die "blame graph missing"
  | Some g ->
      let classes =
        Array.of_list
          (List.map
             (fun (r : Tm_chaos.Runner.report) -> r.Tm_chaos.Runner.rep_observed)
             o.Tm_chaos.Runner.o_reports)
      in
      let shape, evidence = Bg.classify g ~classes in
      (g, shape, evidence)

let blame_cmd =
  let run algo scenario seed domains tvars warmup window format out trace
      telemetry telemetry_format =
    chaos_session ~name:"blame" ~algo ~scenario ~seed ~domains
      ~run:(fun on_sample plan ->
        Tm_chaos.Runner.run ~blame:true ~warmup ~window ?on_sample
          ~workload:(Tm_chaos.Runner.hot_set ~tvars) plan)
      ~render:(fun o ->
        let g, shape, evidence = classified o in
        match format with
        | `Table -> blame_table Fmt.stdout o g shape evidence
        | `Json -> Fmt.pr "%s@." (blame_json o shape evidence)
        | `Dot -> Fmt.pr "%s" (blame_dot o shape evidence))
      ~document:(fun o ->
        let _, shape, evidence = classified o in
        match out with
        | Some file when Filename.check_suffix file ".dot" ->
            blame_dot o shape evidence
        | _ -> blame_json o shape evidence ^ "\n")
      ~note:(Fmt.epr "blame document written to %s@.")
      ~out ?trace ~telemetry ~telemetry_format ()
  in
  let format =
    let fmt_conv : [ `Table | `Json | `Dot ] Arg.conv =
      Arg.enum [ ("table", `Table); ("json", `Json); ("dot", `Dot) ]
    in
    Arg.(
      value & opt fmt_conv `Table
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Attribution on stdout: $(b,table) (verdicts, the weighted \
             who-aborted-whom edges with per-cause counts, and the \
             progress watermarks), $(b,json) (the canonical \
             classification document) or $(b,dot) (Graphviz digraph of \
             the classification).  The JSON and DOT forms carry only the \
             deterministic classification; the raw weights are in the \
             table and the telemetry export.")
  in
  let out =
    out_arg
      ~doc:
        "Also write the canonical document here (CI artifact): DOT if \
         $(i,FILE) ends in $(b,.dot), JSON otherwise."
      ()
  in
  let trace =
    trace_arg
      ~doc:
        "Write the run's trace here as Chrome trace_event JSON: the planned \
         fault schedule, the verdict instants, and one \
         $(b,blame-evidence) instant per domain — the input of the \
         $(b,analyze) $(b,blame) rule."
      ()
  in
  let telemetry =
    telemetry_arg
      ~doc:
        "Export the run's telemetry here ($(b,-) for stdout), including \
         the full $(b,tm_blame_events_total) edge matrix, per-domain \
         commit watermarks and $(b,tm_blame_wait_age) gauges."
      ()
  in
  Cmd.v
    (Cmd.info "blame"
       ~doc:
         "Run a fault scenario with the blame-attribution seam armed and \
          reduce the who-aborted-whom graph to its deterministic \
          classification: per-domain evidence (crashed / parasitic / \
          starved-by / contended / quiet) and a global shape (star / \
          cycle / none).  Exits 1 on any chaos-verdict mismatch.")
    Term.(
      const run $ algo_arg ()
      $ scenario_arg ~default:"crash-holding-locks" ()
      $ seed_arg () $ domains_arg () $ ntvars_arg () $ warmup_arg ()
      $ window_arg () $ format $ out $ trace $ telemetry
      $ telemetry_format_arg ())

let top_cmd =
  let run algo scenario seed domains tvars period frames plain serve profile
      telemetry telemetry_format =
    let title, workload =
      if serve then
        let cfg =
          valid (fun () ->
              Tm_serve.Server.config ~algo ~profile ~seed ~domains ())
        in
        ( Fmt.str "serve[%s]" (Tm_serve.Workload.profile_name profile),
          Tm_serve.Server.chaos_workload cfg )
      else ("chaos", Tm_chaos.Runner.hot_set ~tvars)
    in
    Dashboard.run ~title ~workload ~algo ~scenario ~seed ~domains ~period
      ~frames ~plain ~telemetry ~telemetry_format
  in
  let serve =
    Arg.(
      value & flag
      & info [ "serve" ]
          ~doc:
            "Observe a tmserve serving session instead of the bare chaos \
             workers: per-domain executors run the $(b,--profile) \
             population over the sharded store while the scenario's \
             faults are injected into the serving path.")
  in
  let period =
    Arg.(
      value & opt float 0.5
      & info [ "period" ] ~docv:"SECONDS"
          ~doc:"Seconds between dashboard frames (scrape period).")
  in
  let frames =
    Arg.(
      value & opt int 10
      & info [ "frames" ] ~docv:"N" ~doc:"Frames to render before exiting.")
  in
  let plain =
    Arg.(
      value & flag
      & info [ "plain" ]
          ~doc:
            "Append frames instead of redrawing in place (no ANSI escape \
             codes; for logs and pipes).")
  in
  let telemetry =
    telemetry_arg
      ~doc:
        "Also export every rendered frame's scrape here ($(b,-) for \
         stdout)."
      ()
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live liveness dashboard: run a chaos scenario on the real \
          multicore Stm runtime and redraw per-domain commit/abort rates, \
          injected-fault counters, STM phase-latency percentiles and each \
          domain's current Figure-2 class every scrape period.")
    Term.(
      const run $ algo_arg () $ scenario_arg () $ seed_arg () $ domains_arg ()
      $ ntvars_arg () $ period $ frames $ plain $ serve $ profile_arg ()
      $ telemetry $ telemetry_format_arg ())
