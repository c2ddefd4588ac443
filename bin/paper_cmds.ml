(* The paper's commands: the zoo, the figures, simulation and the
   Theorem-1 game, the solo-progress matrix, the opacity monitor and
   model checker, the (TM x fault x seed) sweep and its traces, the
   Figure-15 automaton, crash windows, and history dump/check. *)

open Cmdliner
open Cli_common

let zoo_cmd =
  let run contracts =
    if contracts then
      List.iter (Fmt.pr "%a@." Tm_impl.Contract.pp) Tm_impl.Contract.all
    else
      List.iter
        (fun e ->
          Fmt.pr "%-18s %s%s@." e.Tm_impl.Registry.entry_name
            e.Tm_impl.Registry.entry_describe
            (if e.Tm_impl.Registry.responsive then "" else " [blocking]"))
        Tm_impl.Registry.all
  in
  let contracts =
    Arg.(
      value & flag
      & info [ "contracts" ]
          ~doc:"Show the measured progress contracts instead.")
  in
  Cmd.v (Cmd.info "zoo" ~doc:"List the TM implementations in the zoo.")
    Term.(const run $ contracts)

let figures_cmd =
  let run () =
    List.iter
      (fun (name, h) ->
        Fmt.pr "--- %s ---@.%aopaque: %b, strictly serializable: %b@.@." name
          Tm_history.Pretty.pp_by_process h
          (Tm_safety.Opacity.is_opaque h)
          (Tm_safety.Serializability.is_strictly_serializable h))
      Tm_history.Figures.all_finite;
    List.iter
      (fun (name, l) ->
        Fmt.pr "--- %s (infinite) ---@.%a@.%a@.%a@.@." name
          Tm_history.Pretty.pp_lasso l Tm_liveness.Process_class.pp_table
          (Tm_liveness.Process_class.classify l)
          Tm_liveness.Property.pp_verdict
          (Tm_liveness.Property.verdict l))
      Tm_history.Figures.all_lassos
  in
  Cmd.v
    (Cmd.info "figures"
       ~doc:"Print and machine-check every figure of the paper.")
    Term.(const run $ const ())

let tm_arg =
  Arg.(
    required
    & pos 0 (some tm_conv) None
    & info [] ~docv:"TM" ~doc:"TM implementation (see $(b,zoo)).")

let simulate_cmd =
  let run entry nprocs ntvars steps seed sched crash parasitic trace_file
      telemetry telemetry_format =
    let fates =
      (match crash with
      | Some p -> [ (p, Tm_sim.Runner.Crash_after_write 1) ]
      | None -> [])
      @
      match parasitic with
      | Some p -> [ (p, Tm_sim.Runner.Parasitic_from (steps / 10)) ]
      | None -> []
    in
    let spec =
      Tm_sim.Runner.spec ~nprocs ~ntvars ~steps ~seed ~sched ~fates ()
    in
    let write_trace = output_to trace_file in
    let col =
      match trace_file with
      | Some _ -> Some (Tm_trace.Sink.collector ())
      | None -> None
    in
    let tel =
      Option.map
        (fun file ->
          let add, flush = telemetry_writer file telemetry_format in
          let reg = Tm_telemetry.Registry.create () in
          let pub =
            Tm_telemetry.Sim_pub.create ~consumers:[ add ] ~nprocs reg
          in
          (pub, flush))
        telemetry
    in
    let o =
      Tm_sim.Runner.run
        ?trace:(Option.map Tm_trace.Sink.collector_sink col)
        entry spec
    in
    Fmt.pr "%a@.@." Tm_sim.Runner.pp_summary o;
    let h = o.Tm_sim.Runner.history in
    (match tel with
    | None -> ()
    | Some (pub, flush) ->
        Tm_telemetry.Sim_pub.publish pub h;
        flush ());
    (match col with
    | Some col ->
        let mcol = Tm_trace.Sink.collector () in
        ignore
          (Tm_safety.Monitor.run_traced
             ~trace:(Tm_trace.Sink.collector_sink mcol)
             h);
        let label =
          Fmt.str "%s/simulate/seed=%d" entry.Tm_impl.Registry.entry_name seed
        in
        let events =
          (metadata_event ~pid:0 label :: Tm_trace.Sink.collected col)
          @ Tm_trace.Sink.collected mcol
        in
        write_trace (chrome events)
          (Fmt.pr "trace: %d events written to %s@." (List.length events))
    | None -> ());
    Fmt.pr "history length: %d events@." (Tm_history.History.length h);
    Fmt.pr "well-formed: %b@." (Tm_history.History.is_well_formed h);
    if Tm_history.History.length h <= 600 then begin
      Fmt.pr "opaque: %b@." (Tm_safety.Opacity.is_opaque h);
      Fmt.pr "strictly serializable: %b@."
        (Tm_safety.Serializability.is_strictly_serializable h)
    end
    else
      Fmt.pr
        "(history too long for the safety checkers; rerun with fewer \
         steps)@.";
    match Tm_sim.Runner.blocked_procs o with
    | [] -> ()
    | ps ->
        Fmt.pr "blocked processes: %a@." Fmt.(list ~sep:(any ", ") int) ps
  in
  let crash =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash" ] ~doc:"Crash this process after its first write.")
  in
  let parasitic =
    Arg.(
      value
      & opt (some int) None
      & info [ "parasitic" ] ~doc:"Turn this process parasitic.")
  in
  let trace_file =
    trace_arg
      ~doc:
        "Record a structured trace of the run (runner spans, fault \
         instants, monitor verdicts) and write it here as Chrome \
         trace_event JSON (Perfetto-loadable)."
      ()
  in
  let telemetry =
    telemetry_arg
      ~doc:
        "Publish per-process commit/abort counters and the live Figure-2 \
         liveness classes into a telemetry registry, scraped every 200 \
         history events on the step clock, and write the result here \
         ($(b,-) for stdout; byte-identical across equal runs)."
      ()
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Run a TM under a schedule, print statistics, and machine-check \
          the history.")
    Term.(
      const run $ tm_arg $ nprocs_arg () $ ntvars_arg () $ steps_arg ()
      $ seed_arg () $ sched_arg () $ crash $ parasitic $ trace_file
      $ telemetry $ telemetry_format_arg ())

let game_cmd =
  let run entry alg rounds =
    let alg =
      if alg = 2 then Tm_adversary.Adversary.Algorithm_2
      else Tm_adversary.Adversary.Algorithm_1
    in
    let r = Tm_adversary.Adversary.run ~rounds entry alg in
    Fmt.pr "rounds completed: %d@." r.Tm_adversary.Adversary.rounds_completed;
    Fmt.pr "p1 commits: %d, aborts: %d@."
      r.Tm_adversary.Adversary.victim_commits
      r.Tm_adversary.Adversary.victim_aborts;
    Fmt.pr "p2 commits: %d@." r.Tm_adversary.Adversary.winner_commits;
    match Tm_adversary.Adversary.verdict r with
    | Blocked ->
        Fmt.pr "verdict: TM blocked (escapes by withholding responses)@."
    | Winner_starved ->
        Fmt.pr
          "verdict: p2 starves too - no global progress (Figures 9/12)@."
    | Victim_committed ->
        Fmt.pr
          "verdict: p1 committed! the history must be non-opaque: opaque=%b@."
          (Tm_safety.Opacity.is_opaque r.Tm_adversary.Adversary.history)
    | Victim_starves -> Fmt.pr "verdict: p1 starves - local progress violated@."
  in
  let alg =
    Arg.(
      value & opt int 1
      & info [ "a"; "algorithm" ] ~doc:"Adversary algorithm (1 or 2).")
  in
  let rounds =
    Arg.(value & opt int 30 & info [ "r"; "rounds" ] ~doc:"Rounds to play.")
  in
  Cmd.v
    (Cmd.info "game" ~doc:"Run the Theorem-1 adversary against a TM.")
    Term.(const run $ tm_arg $ alg $ rounds)

let matrix_cmd =
  let run () =
    let mark b = if b then "yes" else "NO " in
    Fmt.pr "%-18s %-8s %-8s %-11s %-8s@." "TM" "healthy" "crash" "mid-commit"
      "parasite";
    List.iter
      (fun entry ->
        let r = Tm_sim.Solo.measure entry in
        Fmt.pr "%-18s %-8s %-8s %-11s %-8s@." entry.Tm_impl.Registry.entry_name
          (mark r.healthy) (mark r.crash_after_write) (mark r.mid_commit)
          (mark r.parasite))
      Tm_impl.Registry.all
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:"The Section-3.2.3 solo-progress matrix, measured.")
    Term.(const run $ const ())

let monitor_cmd =
  let run entry nprocs ntvars steps seed =
    let spec =
      Tm_sim.Runner.spec ~nprocs ~ntvars ~steps ~seed
        ~sched:Tm_sim.Runner.Uniform ()
    in
    let o = Tm_sim.Runner.run entry spec in
    Fmt.pr "history: %d events@."
      (Tm_history.History.length o.Tm_sim.Runner.history);
    match Tm_safety.Monitor.run o.Tm_sim.Runner.history with
    | Tm_safety.Monitor.Accepted ->
        Fmt.pr "monitor: ACCEPTED (a serialization witness exists: opaque)@."
    | Tm_safety.Monitor.No_witness m ->
        Fmt.pr "monitor: no commit-order witness (%s)@." m
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Run a long simulation and verify it with the linear-time opacity \
          monitor.")
    Term.(
      const run $ tm_arg $ nprocs_arg ~default:4 () $ ntvars_arg ()
      $ steps_arg ~default:50_000 () $ seed_arg ())

let model_check_cmd =
  let run entry depth =
    let s = Tm_sim.Sweep.Exhaustive.screen entry ~depth in
    List.iter
      (Fmt.pr "NON-OPAQUE:@.%a@." Tm_history.Pretty.pp_by_process)
      s.non_opaque;
    Fmt.pr
      "checked %d histories (depth %d, 2 processes, 1 binary t-variable)@."
      s.checked depth;
    Fmt.pr "monitor fallbacks to exact checker: %d@." s.fallbacks;
    Fmt.pr "non-opaque histories: %d@." (List.length s.non_opaque)
  in
  let depth =
    Arg.(value & opt int 8 & info [ "d"; "depth" ] ~doc:"Schedule depth.")
  in
  Cmd.v
    (Cmd.info "model-check"
       ~doc:
         "Exhaustively model-check every schedule of a bounded depth for \
          opacity.")
    Term.(const run $ tm_arg $ depth)

let fault_patterns_doc =
  "Comma-separated fault patterns: healthy, crash, parasite, mixed \
   (default: all four)."

let sweep_cmd =
  let run tms faults seeds nprocs ntvars steps sched jobs metrics_file
      metrics_format trace_file telemetry telemetry_format =
    let jobs = max 1 jobs in
    let patterns, configs =
      grid ~tms ~faults
        ~seeds:(List.init seeds (fun i -> i + 1))
        ~nprocs ~ntvars ~steps ~sched
    in
    let write_metrics = output_to metrics_file
    and write_trace = output_to trace_file in
    let telemetry =
      Option.map (fun file -> telemetry_writer file telemetry_format) telemetry
    in
    let trace = Option.is_some trace_file in
    let t0 = Unix.gettimeofday () in
    let results = run_sweep ~jobs ~trace configs in
    let dt = Unix.gettimeofday () -. t0 in
    (match metrics_format with
    | `Json -> Fmt.pr "%s@." (Tm_sim.Sweep.to_json results)
    | `Table ->
        Fmt.pr "%a" Tm_sim.Sweep.pp_table results;
        Fmt.pr "@.per-TM aggregates (merged over %d patterns x %d seeds):@."
          (List.length patterns) seeds;
        List.iter
          (fun (name, m) ->
            Fmt.pr "%-18s %a@." name Tm_sim.Metrics.pp m;
            Fmt.pr "  commit latency (events):@.    @[<v>%a@]@."
              Tm_sim.Metrics.pp_histogram m.Tm_sim.Metrics.commit_latency;
            Fmt.pr "  retry depth:@.    @[<v>%a@]@."
              Tm_sim.Metrics.pp_histogram m.Tm_sim.Metrics.retry_depth;
            let throughputs =
              List.filter_map
                (fun r ->
                  if
                    r.Tm_sim.Sweep.r_config.Tm_sim.Sweep.tm
                      .Tm_impl.Registry.entry_name = name
                  then Some r.Tm_sim.Sweep.r_metrics.Tm_sim.Metrics.throughput
                  else None)
                results
            in
            Fmt.pr "  per-run throughput: %a@." Tm_sim.Stats.pp
              (Tm_sim.Stats.summarize throughputs))
          (Tm_sim.Sweep.by_tm results));
    write_metrics
      (fun oc -> line (Tm_sim.Sweep.to_json results) oc)
      (Fmt.pr "@.metrics written to %s@.");
    if trace then begin
      let events = combined_trace results in
      write_trace (chrome events)
        (Fmt.pr "@.trace: %d events written to %s@." (List.length events))
    end;
    (match telemetry with
    | None -> ()
    | Some (add, flush) ->
        (* Published post-hoc in canonical grid order (snapshot ts = run
           index), so the series is byte-identical across --jobs. *)
        let reg = Tm_telemetry.Registry.create () in
        let pub = Tm_telemetry.Sweep_pub.create ~consumers:[ add ] reg in
        ignore (Tm_telemetry.Sweep_pub.publish_all pub results);
        flush ());
    (* Wall-clock goes to stderr: stdout (and the metrics JSON) must be
       byte-identical across --jobs values. *)
    Fmt.epr "sweep: %d runs in %.3fs (%d jobs)@." (List.length results) dt
      jobs
  in
  let tms =
    tms_arg ~doc:"Comma-separated TM names to sweep (default: the whole zoo)."
      ()
  in
  let seeds =
    Arg.(
      value & opt int 4
      & info [ "seeds" ] ~doc:"Number of seeds per configuration (1..N).")
  in
  let jobs =
    jobs_arg
      ~doc:
        "Worker domains to shard the sweep across; results are bit-for-bit \
         identical for every value."
      ()
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write the per-run and per-TM metrics JSON document here.")
  in
  let metrics_format =
    format_arg ~names:[ "metrics-format" ]
      ~doc:
        "How to render metrics on stdout: $(b,table) (per-run table, \
         per-TM aggregates with latency/retry histograms and a \
         throughput summary) or $(b,json) (the same document \
         $(b,--metrics) writes)."
      ()
  in
  let trace_file =
    trace_arg
      ~doc:
        "Record per-run structured traces and write the merged Chrome \
         trace_event JSON here (one process lane per run; byte-identical \
         for every $(b,--jobs) value)."
      ()
  in
  let telemetry =
    telemetry_arg
      ~doc:
        "Publish grid-total counters and commit-latency / retry-depth \
         histograms into a telemetry registry, scraped once per run in \
         canonical grid order (snapshot timestamp = run index), and write \
         the result here ($(b,-) for stdout; byte-identical for every \
         $(b,--jobs) value)."
      ()
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a (TM x fault-pattern x seed) configuration grid, optionally \
          sharded across domains, and report per-run metrics.")
    Term.(
      const run $ tms
      $ faults_arg ~doc:fault_patterns_doc ()
      $ seeds $ nprocs_arg () $ ntvars_arg ()
      $ steps_arg ~default:1000 ()
      $ sched_arg () $ jobs $ metrics_file $ metrics_format $ trace_file
      $ telemetry $ telemetry_format_arg ())

let trace_cmd =
  let run tms faults seed nprocs ntvars steps sched jobs out format =
    let _, configs =
      grid ~tms ~faults ~seeds:[ seed ] ~nprocs ~ntvars ~steps ~sched
    in
    let write_out = output_to out in
    let results = run_sweep ~jobs ~trace:true configs in
    let events = combined_trace results in
    let render oc =
      match format with
      | `Json -> Tm_trace.Export.to_chrome_channel oc events
      | `Text -> output_string oc (Tm_trace.Export.text_string events)
    in
    match out with
    | None -> render stdout
    | Some _ ->
        write_out render
          (Fmt.pr "wrote %d trace events to %s@." (List.length events))
  in
  let tms =
    tms_arg ~doc:"Comma-separated TM names to trace (default: the whole zoo)."
      ()
  in
  let jobs =
    jobs_arg
      ~doc:
        "Worker domains; the trace is byte-for-bit identical for every value."
      ()
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("json", `Json); ("text", `Text) ]) `Json
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Trace format: $(b,json) (Chrome trace_event, Perfetto-loadable) \
             or $(b,text) (compact one-event-per-line dump).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a (TM x fault-pattern) grid at one seed and emit a merged \
          structured trace: transaction/tryC spans, fault instants, defer \
          counters, and streamed opacity-monitor verdicts, on the \
          deterministic step clock.")
    Term.(
      const run $ tms
      $ faults_arg ~doc:fault_patterns_doc ()
      $ seed_arg ~default:1 () $ nprocs_arg () $ ntvars_arg () $ steps_arg ()
      $ sched_arg () $ jobs
      $ out_arg ~doc:"Write the trace here (default: stdout)." ()
      $ format)

let explore_cmd =
  let run dot =
    let module Exh = Tm_sim.Sweep.Exhaustive in
    let g = Exh.fig15 () in
    assert g.Exh.complete;
    if dot then
      print_string
        (Exh.to_dot
           ~state_label:(Fmt.str "%a" Tm_impl.Fgp.pp_state)
           g)
    else begin
      Fmt.pr "%d reachable states (the paper's Figure 15 lists 10):@."
        (List.length g.Exh.states);
      List.iteri
        (fun i (s, _) ->
          Fmt.pr "  s%-2d %a@." (i + 1) Tm_impl.Fgp.pp_state s)
        g.Exh.states
    end
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit the Graphviz graph.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Enumerate the reachable states of Fgp with one process and one \
          binary t-variable (Figure 15).")
    Term.(const run $ dot)

let crash_windows_cmd =
  let run samples =
    Fmt.pr
      "Fraction of %d random crash points that permanently stall a solo \
       runner@.(3-write transactions on one hot t-variable):@.@." samples;
    List.iter
      (fun entry ->
        let w = Tm_sim.Solo.crash_windows ~samples entry in
        Fmt.pr "%-18s %3d/%d@." entry.Tm_impl.Registry.entry_name w.stalls
          samples)
      Tm_impl.Registry.all
  in
  let samples =
    Arg.(value & opt int 40 & info [ "s"; "samples" ] ~doc:"Crash points.")
  in
  Cmd.v
    (Cmd.info "crash-windows"
       ~doc:"Measure each TM's crash-vulnerability window.")
    Term.(const run $ samples)

let dump_cmd =
  let run entry nprocs ntvars steps seed file =
    let write = output_to (Some file) in
    let spec =
      Tm_sim.Runner.spec ~nprocs ~ntvars ~steps ~seed
        ~sched:Tm_sim.Runner.Uniform ()
    in
    let h = (Tm_sim.Runner.run entry spec).Tm_sim.Runner.history in
    write
      (fun oc -> output_string oc (Tm_history.Codec.history_to_string h))
      (Fmt.pr "wrote %d events to %s@." (Tm_history.History.length h))
  in
  let file =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FILE" ~doc:"Output trace file.")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Simulate a TM and write the history to a file.")
    Term.(
      const run $ tm_arg $ nprocs_arg () $ ntvars_arg () $ steps_arg ()
      $ seed_arg () $ file)

let check_cmd =
  let run file =
    match Tm_history.Codec.history_of_string (read_input file) with
    | Error m -> die "%s" m
    | Ok h -> (
        Fmt.pr "loaded %d events@." (Tm_history.History.length h);
        (match Tm_safety.Monitor.run h with
        | Tm_safety.Monitor.Accepted ->
            Fmt.pr "monitor: ACCEPTED (opaque, witness found)@."
        | Tm_safety.Monitor.No_witness m ->
            Fmt.pr "monitor: no commit-order witness (%s)@." m;
            if Tm_history.History.length h <= 600 then begin
              Fmt.pr "exact opacity: %b@." (Tm_safety.Opacity.is_opaque h);
              Fmt.pr "exact strict serializability: %b@."
                (Tm_safety.Serializability.is_strictly_serializable h)
            end);
        match Tm_liveness.Empirical.find_lasso h with
        | None -> Fmt.pr "no periodic suffix detected@."
        | Some l ->
            Fmt.pr "periodic suffix detected; liveness verdict: %a@."
              Tm_liveness.Property.pp_verdict
              (Tm_liveness.Property.verdict l))
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Trace file (see $(b,dump)).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Load a dumped trace and check safety (and detect liveness).")
    Term.(const run $ file)
