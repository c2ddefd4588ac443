(* tmlive: command-line front end to the TM-liveness library.

   Subcommands:
     zoo      - list the TM implementations
     figures  - print and machine-check every figure of the paper
     simulate - run a TM under a schedule (optionally with faults) and
                check safety of the produced history
     game     - run the Theorem-1 adversary against a TM
     matrix   - the Section-3.2.3 solo-progress matrix
     sweep    - run a (TM x fault x seed) grid across domains with metrics
     chaos    - deterministic fault injection on the real multicore Stm
     model-check - exhaustively check every bounded-depth schedule

   Converters, common flags and traced-run assembly live in
   [Cli_common]. *)

open Cmdliner
open Cli_common

(* ------------------------------------------------------------------ *)

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
        ?on_event:(Option.map (fun (pub, _) -> Tm_telemetry.Sim_pub.hook pub) tel)
        entry spec
    in
    Fmt.pr "%a@.@." Tm_sim.Runner.pp_summary o;
    let h = o.Tm_sim.Runner.history in
    (match tel with
    | None -> ()
    | Some (pub, flush) ->
        ignore
          (Tm_telemetry.Sim_pub.finish pub ~ts:(Tm_history.History.length h));
        flush ());
    (match (trace_file, col) with
    | Some file, Some col ->
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
        write_trace_file file events;
        Fmt.pr "trace: %d events written to %s@." (List.length events) file
    | _ -> ());
    Fmt.pr "history length: %d events@." (Tm_history.History.length h);
    Fmt.pr "well-formed: %b@." (Tm_history.History.is_well_formed h);
    if Tm_history.History.length h <= 600 then begin
      Fmt.pr "opaque: %b@." (Tm_safety.Opacity.is_opaque h);
      Fmt.pr "strictly serializable: %b@."
        (Tm_safety.Serializability.is_strictly_serializable h)
    end
    else
      Fmt.pr "(history too long for the safety checkers; rerun with fewer \
              steps)@.";
    match Tm_sim.Runner.blocked_procs o with
    | [] -> ()
    | ps ->
        Fmt.pr "blocked processes: %a@." Fmt.(list ~sep:(any ", ") int) ps
  in
  let nprocs = nprocs_arg () in
  let ntvars = ntvars_arg () in
  let steps = steps_arg () in
  let seed = seed_arg () in
  let sched = sched_arg () in
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
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a structured trace of the run (runner spans, fault \
             instants, monitor verdicts) and write it here as Chrome \
             trace_event JSON (Perfetto-loadable).")
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
  let telemetry_format = telemetry_format_arg () in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Run a TM under a schedule, print statistics, and machine-check \
          the history.")
    Term.(
      const run $ tm_arg $ nprocs $ ntvars $ steps $ seed $ sched $ crash
      $ parasitic $ trace_file $ telemetry $ telemetry_format)

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
    if r.Tm_adversary.Adversary.blocked then
      Fmt.pr "verdict: TM blocked (escapes by withholding responses)@."
    else if r.Tm_adversary.Adversary.terminated then
      Fmt.pr
        "verdict: p1 committed! the history must be non-opaque: opaque=%b@."
        (Tm_safety.Opacity.is_opaque r.Tm_adversary.Adversary.history)
    else Fmt.pr "verdict: p1 starves - local progress violated@."
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
    let solo ?(sched = Tm_sim.Runner.Round_robin) entry fate =
      let spec =
        Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps:4000 ~seed:1 ~sched
          ~fates:[ (1, fate) ]
          ()
      in
      (Tm_sim.Runner.run entry spec).Tm_sim.Runner.commits.(2) >= 10
    in
    let mark b = if b then "yes" else "NO " in
    Fmt.pr "%-18s %-8s %-8s %-11s %-8s@." "TM" "healthy" "crash" "mid-commit"
      "parasite";
    List.iter
      (fun entry ->
        let depth =
          match entry.Tm_impl.Registry.entry_name with
          | "tl2" | "ostm" | "norec" -> 2
          | _ -> 0
        in
        Fmt.pr "%-18s %-8s %-8s %-11s %-8s@." entry.Tm_impl.Registry.entry_name
          (mark (solo ~sched:Tm_sim.Runner.Uniform entry Tm_sim.Runner.Healthy))
          (mark (solo entry (Tm_sim.Runner.Crash_after_write 1)))
          (mark (solo entry (Tm_sim.Runner.Crash_mid_commit depth)))
          (mark (solo entry (Tm_sim.Runner.Parasitic_from 10))))
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
  let nprocs = nprocs_arg ~default:4 () in
  let ntvars = ntvars_arg () in
  let steps = steps_arg ~default:50_000 () in
  let seed = seed_arg () in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Run a long simulation and verify it with the linear-time opacity \
          monitor.")
    Term.(const run $ tm_arg $ nprocs $ ntvars $ steps $ seed)

let model_check_cmd =
  let run entry depth =
    let checked = ref 0 and bad = ref 0 and fallback = ref 0 in
    Tm_sim.Sweep.Exhaustive.run entry ~nprocs:2 ~ntvars:1
      ~invocations:
        [
          Tm_history.Event.Read 0;
          Tm_history.Event.Write (0, 1);
          Tm_history.Event.Try_commit;
        ]
      ~depth
      ~on_history:(fun h _ ->
        incr checked;
        match Tm_safety.Monitor.run h with
        | Tm_safety.Monitor.Accepted -> ()
        | Tm_safety.Monitor.No_witness _ ->
            incr fallback;
            if not (Tm_safety.Opacity.is_opaque h) then begin
              incr bad;
              Fmt.pr "NON-OPAQUE:@.%a@." Tm_history.Pretty.pp_by_process h
            end);
    Fmt.pr
      "checked %d histories (depth %d, 2 processes, 1 binary t-variable)@."
      !checked depth;
    Fmt.pr "monitor fallbacks to exact checker: %d@." !fallback;
    Fmt.pr "non-opaque histories: %d@." !bad
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

let sweep_cmd =
  let run tms faults seeds nprocs ntvars steps sched jobs metrics_file
      metrics_format trace_file telemetry telemetry_format =
    let jobs = max 1 jobs in
    let tms = match tms with [] -> Tm_impl.Registry.all | tms -> tms in
    let patterns = resolve_patterns ~nprocs ~ntvars ~steps ~sched faults in
    let configs =
      Tm_sim.Sweep.grid ~tms ~patterns
        ~seeds:(List.init seeds (fun i -> i + 1))
        ()
    in
    let opened = Option.map (fun file -> (file, open_output file)) in
    let metrics_file = opened metrics_file and trace_file = opened trace_file in
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
    (match metrics_file with
    | None -> ()
    | Some (file, oc) ->
        output_string oc (Tm_sim.Sweep.to_json results);
        output_char oc '\n';
        close_out oc;
        Fmt.pr "@.metrics written to %s@." file);
    (match trace_file with
    | None -> ()
    | Some (file, oc) ->
        let events = combined_trace results in
        write_trace oc events;
        Fmt.pr "@.trace: %d events written to %s@." (List.length events) file);
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
  let faults =
    faults_arg
      ~doc:
        "Comma-separated fault patterns: healthy, crash, parasite, mixed \
         (default: all four)."
      ()
  in
  let seeds =
    Arg.(
      value & opt int 4
      & info [ "seeds" ] ~doc:"Number of seeds per configuration (1..N).")
  in
  let nprocs = nprocs_arg () in
  let ntvars = ntvars_arg () in
  let steps = steps_arg ~default:1000 () in
  let sched = sched_arg () in
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
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record per-run structured traces and write the merged Chrome \
             trace_event JSON here (one process lane per run; \
             byte-identical for every $(b,--jobs) value).")
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
  let telemetry_format = telemetry_format_arg () in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a (TM x fault-pattern x seed) configuration grid, optionally \
          sharded across domains, and report per-run metrics.")
    Term.(
      const run $ tms $ faults $ seeds $ nprocs $ ntvars $ steps $ sched
      $ jobs $ metrics_file $ metrics_format $ trace_file $ telemetry
      $ telemetry_format)

let trace_cmd =
  let run tms faults seed nprocs ntvars steps sched jobs out format =
    let tms = match tms with [] -> Tm_impl.Registry.all | tms -> tms in
    let patterns = resolve_patterns ~nprocs ~ntvars ~steps ~sched faults in
    let configs = Tm_sim.Sweep.grid ~tms ~patterns ~seeds:[ seed ] () in
    let out = Option.map (fun file -> (file, open_output file)) out in
    let results = run_sweep ~jobs ~trace:true configs in
    let events = combined_trace results in
    let render oc =
      match format with
      | `Json -> Tm_trace.Export.to_chrome_channel oc events
      | `Text -> output_string oc (Tm_trace.Export.text_string events)
    in
    match out with
    | None -> render stdout
    | Some (file, oc) ->
        render oc;
        close_out oc;
        Fmt.pr "wrote %d trace events to %s@." (List.length events) file
  in
  let tms =
    tms_arg ~doc:"Comma-separated TM names to trace (default: the whole zoo)."
      ()
  in
  let faults =
    faults_arg
      ~doc:
        "Comma-separated fault patterns: healthy, crash, parasite, mixed \
         (default: all four)."
      ()
  in
  let seed = seed_arg ~default:1 () in
  let nprocs = nprocs_arg () in
  let ntvars = ntvars_arg () in
  let steps = steps_arg () in
  let sched = sched_arg () in
  let jobs =
    jobs_arg
      ~doc:
        "Worker domains; the trace is byte-for-bit identical for every value."
      ()
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the trace here (default: stdout).")
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
      const run $ tms $ faults $ seed $ nprocs $ ntvars $ steps $ sched
      $ jobs $ out $ format)

type explore_action = E_invoke of Tm_history.Event.invocation | E_poll

let explore_cmd =
  let run dot =
    let cfg = Tm_impl.Tm_intf.config ~nprocs:1 ~ntvars:1 () in
    let exploration =
      Tm_automaton.Explorer.reachable
        ~make:(fun () -> Tm_impl.Fgp.create cfg)
        ~snapshot:Tm_impl.Fgp.state
        ~actions:(fun t ->
          match Tm_impl.Fgp.pending t 1 with
          | Some _ -> [ E_poll ]
          | None ->
              [
                E_invoke (Tm_history.Event.Read 0);
                E_invoke (Tm_history.Event.Write (0, 0));
                E_invoke (Tm_history.Event.Write (0, 1));
                E_invoke Tm_history.Event.Try_commit;
              ])
        ~apply:(fun t a ->
          match a with
          | E_invoke inv -> Tm_impl.Fgp.invoke t 1 inv
          | E_poll -> ignore (Tm_impl.Fgp.poll t 1))
        ()
    in
    if dot then
      print_string
        (Tm_automaton.Explorer.to_dot
           ~state_label:(Fmt.str "%a" Tm_impl.Fgp.pp_state)
           ~action_label:(function
             | E_invoke inv ->
                 Fmt.str "%a" Tm_history.Event.pp_invocation inv
             | E_poll -> "poll")
           exploration)
    else begin
      Fmt.pr "%d reachable states (the paper's Figure 15 lists 10):@."
        (List.length exploration.Tm_automaton.Explorer.states);
      List.iteri
        (fun i (s, _) ->
          Fmt.pr "  s%-2d %a@." (i + 1) Tm_impl.Fgp.pp_state s)
        exploration.Tm_automaton.Explorer.states
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
    let inc =
      Tm_sim.Workload.W_write
        ( 0,
          fun reads ->
            (match List.assoc_opt 0 reads with Some v -> v | None -> 0) + 1 )
    in
    let hot =
      Tm_sim.Workload.fixed "w3x1"
        [ [ Tm_sim.Workload.W_read 0; inc; inc; inc ] ]
    in
    List.iter
      (fun entry ->
        let stalls = ref 0 in
        for seed = 1 to samples do
          let crash_step = 20 + (seed * 17 mod 300) in
          let spec =
            Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps:4000 ~seed
              ~sched:Tm_sim.Runner.Round_robin ~workload:hot
              ~fates:[ (1, Tm_sim.Runner.Crash_at crash_step) ]
              ()
          in
          let o = Tm_sim.Runner.run entry spec in
          if o.Tm_sim.Runner.commits.(2) < 10 then incr stalls
        done;
        Fmt.pr "%-18s %3d/%d@." entry.Tm_impl.Registry.entry_name !stalls
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
    let spec =
      Tm_sim.Runner.spec ~nprocs ~ntvars ~steps ~seed
        ~sched:Tm_sim.Runner.Uniform ()
    in
    let o = Tm_sim.Runner.run entry spec in
    let text = Tm_history.Codec.history_to_string o.Tm_sim.Runner.history in
    let oc = open_output file in
    output_string oc text;
    close_out oc;
    Fmt.pr "wrote %d events to %s@."
      (Tm_history.History.length o.Tm_sim.Runner.history)
      file
  in
  let nprocs = nprocs_arg () in
  let ntvars = ntvars_arg () in
  let steps = steps_arg () in
  let seed = seed_arg () in
  let file =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FILE" ~doc:"Output trace file.")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Simulate a TM and write the history to a file.")
    Term.(const run $ tm_arg $ nprocs $ ntvars $ steps $ seed $ file)

let check_cmd =
  let run file =
    let ic = open_in file in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    match Tm_history.Codec.history_of_string text with
    | Error m ->
        Fmt.epr "error: %s@." m;
        exit 2
    | Ok h ->
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
              (Tm_liveness.Property.verdict l)
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

(* ------------------------------------------------------------------ *)

module An = Tm_analysis

let analyze_cmd =
  let run histories traces figures sweep stm_demo rules_str format out
      fail_on list_rules tms faults seeds nprocs ntvars steps sched jobs =
    if list_rules then Fmt.pr "%a" An.Engine.pp_catalogue ()
    else begin
      let rules =
        match An.Engine.parse_selection rules_str with
        | Ok ids -> ids
        | Error m ->
            Fmt.epr "error: %s@." m;
            exit 2
      in
      let findings = ref [] in
      let record fs = findings := fs @ !findings in
      let analyze_history ~subject h =
        match An.Engine.run_history ~rules ~subject h with
        | [] -> (
            (* Only look for a periodic suffix in clean histories; the
               liveness taxonomy assumes well-formedness. *)
            match Tm_liveness.Empirical.find_lasso h with
            | None -> ()
            | Some l -> record (An.Engine.run_lasso ~rules ~subject l))
        | fs -> record fs
      in
      (* Explicit inputs. *)
      List.iter
        (fun file ->
          (* Lax parse: well-formedness violations are findings, not load
             errors. *)
          match Tm_history.Codec.history_of_string_lax (read_file file) with
          | Error m ->
              Fmt.epr "error: %s: %s@." file m;
              exit 2
          | Ok h -> analyze_history ~subject:(Filename.basename file) h)
        histories;
      List.iter
        (fun file ->
          match Tm_trace.Export.of_chrome_string (read_file file) with
          | Error m ->
              Fmt.epr "error: %s: %s@." file m;
              exit 2
          | Ok evs ->
              record
                (An.Engine.run_trace ~rules ~subject:(Filename.basename file)
                   evs))
        traces;
      (* Corpora. *)
      let figures =
        figures
        || (histories = [] && traces = [] && (not sweep) && not stm_demo)
      in
      if figures then begin
        List.iter
          (fun (name, h) -> record (An.Engine.run_history ~rules ~subject:name h))
          Tm_history.Figures.all_finite;
        List.iter
          (fun (name, l) -> record (An.Engine.run_lasso ~rules ~subject:name l))
          Tm_history.Figures.all_lassos
      end;
      if sweep then begin
        let tms = match tms with [] -> Tm_impl.Registry.all | tms -> tms in
        let patterns =
          resolve_patterns ~nprocs ~ntvars ~steps ~sched faults
        in
        let configs =
          Tm_sim.Sweep.grid ~tms ~patterns
            ~seeds:(List.init seeds (fun i -> i + 1))
            ()
        in
        let results = run_sweep ~jobs ~trace:true configs in
        List.iter
          (fun (r : Tm_sim.Sweep.result) ->
            let subject = Tm_sim.Sweep.label r.Tm_sim.Sweep.r_config in
            let t = traced r in
            analyze_history ~subject t.Tm_sim.Sweep.t_history;
            record
              (An.Engine.run_trace ~rules ~subject t.Tm_sim.Sweep.t_trace))
          results
      end;
      if stm_demo then begin
        let events, dropped =
          stm_demo_events ~jobs:(max 2 jobs) ~ntvars ~steps:(min steps 2000)
        in
        if dropped > 0 then begin
          (* A truncated ring fabricates protocol violations; refuse to
             lint a partial trace. *)
          Fmt.epr
            "error: stm demo dropped %d events (ring too small for this \
             workload); not analyzing a truncated trace@."
            dropped;
          exit 2
        end;
        record (An.Engine.run_trace ~rules ~subject:"stm-demo" events)
      end;
      let findings = List.sort An.Finding.compare !findings in
      (match format with
      | `Table -> Fmt.pr "%a" An.Finding.pp_report findings
      | `Json -> print_string (An.Finding.list_to_json findings));
      (match out with
      | None -> ()
      | Some file ->
          let oc = open_output file in
          output_string oc (An.Finding.list_to_json findings);
          close_out oc;
          Fmt.epr "findings written to %s@." file);
      exit (An.Engine.exit_code_at fail_on findings)
    end
  in
  let histories =
    Arg.(
      value
      & opt_all string []
      & info [ "history" ] ~docv:"FILE"
          ~doc:"Analyze a dumped history file (see $(b,dump)). Repeatable.")
  in
  let traces =
    Arg.(
      value
      & opt_all string []
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Analyze a Chrome trace_event JSON file (see $(b,trace), \
             $(b,sweep --trace)). Repeatable.")
  in
  let figures =
    Arg.(
      value & flag
      & info [ "figures" ]
          ~doc:
            "Analyze the paper's whole Figures corpus (default when no \
             other input is given).")
  in
  let sweep =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Run a traced (TM x fault x seed) sweep and analyze every \
             run's history and trace ($(b,--tm), $(b,--faults), \
             $(b,--seeds), $(b,-p), $(b,-t), $(b,-n), $(b,--sched), \
             $(b,--jobs) as for $(b,sweep)).")
  in
  let stm_demo =
    Arg.(
      value & flag
      & info [ "stm" ]
          ~doc:
            "Run a traced multicore workload on the real Stm runtime and \
             analyze its lock/commit protocol trace ($(b,--jobs) domains, \
             $(b,-t) accounts, $(b,-n) transfers per domain).")
  in
  let rules =
    Arg.(
      value & opt string "all"
      & info [ "rules" ] ~docv:"RULES"
          ~doc:
            "Rule subset: $(b,all) or a comma-separated list of rule ids \
             (see $(b,--list-rules)).")
  in
  let format =
    format_arg ~doc:"Findings on stdout as $(b,table) or $(b,json)." ()
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write the findings JSON document here (CI artifact).")
  in
  let list_rules =
    Arg.(
      value & flag
      & info [ "list-rules" ] ~doc:"Print the rule catalogue and exit.")
  in
  let tms = tms_arg ~doc:"TMs for $(b,--sweep) (default: the whole zoo)." () in
  let faults =
    faults_arg ~doc:"Fault patterns for $(b,--sweep) (default: all four)." ()
  in
  let seeds =
    Arg.(
      value & opt int 2
      & info [ "seeds" ] ~doc:"Seeds per configuration for $(b,--sweep).")
  in
  let nprocs = nprocs_arg () in
  let ntvars = ntvars_arg () in
  let steps = steps_arg () in
  let sched = sched_arg () in
  let jobs = jobs_arg ~doc:"Worker domains for $(b,--sweep) / $(b,--stm)." () in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Lint histories and traces: well-formedness and transaction-\
          identity checks, liveness-class diagnostics, and trace-level \
          race / lock-order / commit-protocol analyzers.  Exits 1 if any \
          finding at or above $(b,--fail-on) is reported, so CI can gate \
          on it.")
    Term.(
      const run $ histories $ traces $ figures $ sweep $ stm_demo $ rules
      $ format $ out $ fail_on_arg () $ list_rules $ tms $ faults $ seeds
      $ nprocs $ ntvars $ steps $ sched $ jobs)

(* ------------------------------------------------------------------ *)

let static_cmd =
  let module Sc = Tm_staticcheck.Checker in
  let run root rules_str format out fail_on list_rules =
    if list_rules then Fmt.pr "%a" Sc.pp_catalogue ()
    else begin
      let rules =
        match Sc.parse_selection rules_str with
        | Ok ids -> ids
        | Error m ->
            Fmt.epr "error: %s@." m;
            exit 2
      in
      let root =
        match root with
        | Some dir -> dir
        | None -> (
            match Sc.find_root () with
            | Some dir -> dir
            | None ->
                Fmt.epr
                  "error: no repo root found above the working directory \
                   (looked for dune-project + lib/stm); use --root@.";
                exit 2)
      in
      match Sc.run ~rules ~root () with
      | Error m ->
          Fmt.epr "error: %s@." m;
          exit 2
      | Ok report ->
          let findings = report.Sc.findings in
          (match format with
          | `Table ->
              Fmt.pr "%d file(s) scanned under %s@." report.Sc.files_scanned
                root;
              Fmt.pr "%a" An.Finding.pp_report findings
          | `Json -> print_string (An.Finding.list_to_json findings));
          (match out with
          | None -> ()
          | Some file ->
              let oc = open_output file in
              output_string oc (An.Finding.list_to_json findings);
              close_out oc;
              Fmt.epr "findings written to %s@." file);
          exit (An.Engine.exit_code_at fail_on findings)
    end
  in
  let root =
    Arg.(
      value
      & opt (some dir) None
      & info [ "root" ] ~docv:"DIR"
          ~doc:
            "Repo checkout to analyze (default: walk upward from the \
             working directory to the first dune-project with lib/stm).")
  in
  let rules =
    Arg.(
      value & opt string "all"
      & info [ "rules" ] ~docv:"RULES"
          ~doc:
            "Rule subset: $(b,all) or a comma-separated list of rule ids \
             (see $(b,--list-rules)).")
  in
  let format =
    format_arg ~doc:"Findings on stdout as $(b,table) or $(b,json)." ()
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write the findings JSON document here (CI artifact).")
  in
  let list_rules =
    Arg.(
      value & flag
      & info [ "list-rules" ] ~doc:"Print the rule catalogue and exit.")
  in
  Cmd.v
    (Cmd.info "static"
       ~doc:
         "Statically analyze the repo's own OCaml sources: cross-check \
          each core's seam emission sites against the Stm.Algo contract \
          tables, require every emission to sit behind its disarmed-check \
          guard, flag non-rollbackable effects inside atomically bodies, \
          seams armed without a paired teardown, and interface values \
          nothing outside their module names.  Exits 1 if any \
          finding at or above $(b,--fail-on) is reported, so CI can gate \
          on it.")
    Term.(const run $ root $ rules $ format $ out $ fail_on_arg () $ list_rules)

(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let run list_scenarios algo scenario seed domains tvars warmup window format
      out trace_file telemetry telemetry_format =
    if list_scenarios then
      List.iter
        (fun s ->
          Fmt.pr "%-20s %s@." s
            (Option.value ~default:"" (Tm_chaos.Plan.scenario_doc s)))
        Tm_chaos.Plan.scenarios
    else
      match Tm_chaos.Plan.make ~algo ~scenario ~seed ~domains () with
      | Error m ->
          Fmt.epr "error: %s@." m;
          exit 2
      | Ok plan ->
          let on_sample, tel_flush =
            telemetry_setup telemetry telemetry_format
          in
          let o =
            Tm_chaos.Runner.run ~warmup ~window ?on_sample
              ~workload:(Tm_chaos.Runner.hot_set ~tvars) plan
          in
          (match format with
          | `Table -> Fmt.pr "%a" Tm_chaos.Runner.pp_table o
          | `Json -> Fmt.pr "%s@." (Tm_chaos.Runner.to_json o));
          tel_flush ();
          (match out with
          | None -> ()
          | Some file ->
              let oc = open_output file in
              output_string oc (Tm_chaos.Runner.to_json o);
              output_char oc '\n';
              close_out oc;
              Fmt.epr "verdicts written to %s@." file);
          (match trace_file with
          | None -> ()
          | Some file ->
              let label =
                Fmt.str "chaos/%s/%s/seed=%d" scenario
                  (Tm_stm.Stm.Algo.name algo)
                  seed
              in
              let events =
                metadata_event ~pid:0 label :: o.Tm_chaos.Runner.o_events
              in
              write_trace_file file events;
              Fmt.epr "trace: %d events written to %s@." (List.length events)
                file);
          exit (if o.Tm_chaos.Runner.o_ok then 0 else 1)
  in
  let list_scenarios =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the fault scenarios and exit.")
  in
  let scenario = scenario_arg () in
  let seed = seed_arg () in
  let domains = domains_arg () in
  let tvars = ntvars_arg () in
  let warmup = warmup_arg () in
  let window = window_arg () in
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
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the chaos trace here as Chrome trace_event JSON: the \
             planned fault schedule ($(b,Fault) instants on each domain's \
             operation clock) and the empirical verdict instants — \
             byte-identical for a fixed (scenario, seed, domains).")
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
  let telemetry_format = telemetry_format_arg () in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Inject a seeded fault plan into the real multicore Stm runtime, \
          watch per-domain progress counters, and gate on the expected \
          Figure-2 classes (crashed / parasitic / starving / progressing).  \
          Exits 1 on any verdict mismatch.")
    Term.(
      const run $ list_scenarios $ algo_arg () $ scenario $ seed $ domains
      $ tvars $ warmup $ window $ format $ out $ trace_file $ telemetry
      $ telemetry_format)

(* ------------------------------------------------------------------ *)

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

let blame_cmd =
  let run algo scenario seed domains tvars warmup window format out trace_file
      telemetry telemetry_format =
    match Tm_chaos.Plan.make ~algo ~scenario ~seed ~domains () with
    | Error m ->
        Fmt.epr "error: %s@." m;
        exit 2
    | Ok plan -> (
        let on_sample, tel_flush = telemetry_setup telemetry telemetry_format in
        let o =
          Tm_chaos.Runner.run ~blame:true ~warmup ~window ?on_sample
            ~workload:(Tm_chaos.Runner.hot_set ~tvars) plan
        in
        match o.Tm_chaos.Runner.o_blame with
        | None -> Fmt.epr "error: blame graph missing@."; exit 2
        | Some g ->
            let classes =
              Array.of_list
                (List.map
                   (fun (r : Tm_chaos.Runner.report) ->
                     r.Tm_chaos.Runner.rep_observed)
                   o.Tm_chaos.Runner.o_reports)
            in
            let shape, evidence = Bg.classify g ~classes in
            (match format with
            | `Table -> blame_table Fmt.stdout o g shape evidence
            | `Json -> Fmt.pr "%s@." (blame_json o shape evidence)
            | `Dot -> Fmt.pr "%s" (blame_dot o shape evidence));
            tel_flush ();
            (match out with
            | None -> ()
            | Some file ->
                let doc =
                  if Filename.check_suffix file ".dot" then
                    blame_dot o shape evidence
                  else blame_json o shape evidence ^ "\n"
                in
                let oc = open_output file in
                output_string oc doc;
                close_out oc;
                Fmt.epr "blame document written to %s@." file);
            (match trace_file with
            | None -> ()
            | Some file ->
                let label =
                  Fmt.str "blame/%s/%s/seed=%d" scenario
                    (Tm_stm.Stm.Algo.name algo)
                    seed
                in
                let events =
                  metadata_event ~pid:0 label :: o.Tm_chaos.Runner.o_events
                in
                write_trace_file file events;
                Fmt.epr "trace: %d events written to %s@."
                  (List.length events) file);
            exit (if o.Tm_chaos.Runner.o_ok then 0 else 1))
  in
  let scenario = scenario_arg ~default:"crash-holding-locks" () in
  let seed = seed_arg () in
  let domains = domains_arg () in
  let tvars = ntvars_arg () in
  let warmup = warmup_arg () in
  let window = window_arg () in
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
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the run's trace here as Chrome trace_event JSON: the \
             planned fault schedule, the verdict instants, and one \
             $(b,blame-evidence) instant per domain — the input of the \
             $(b,analyze) $(b,blame) rule.")
  in
  let telemetry =
    telemetry_arg
      ~doc:
        "Export the run's telemetry here ($(b,-) for stdout), including \
         the full $(b,tm_blame_events_total) edge matrix, per-domain \
         commit watermarks and $(b,tm_blame_wait_age) gauges."
      ()
  in
  let telemetry_format = telemetry_format_arg () in
  Cmd.v
    (Cmd.info "blame"
       ~doc:
         "Run a fault scenario with the blame-attribution seam armed and \
          reduce the who-aborted-whom graph to its deterministic \
          classification: per-domain evidence (crashed / parasitic / \
          starved-by / contended / quiet) and a global shape (star / \
          cycle / none).  Exits 1 on any chaos-verdict mismatch.")
    Term.(
      const run $ algo_arg () $ scenario $ seed $ domains $ tvars $ warmup
      $ window $ format $ out $ trace_file $ telemetry $ telemetry_format)

let top_cmd =
  let run algo scenario seed domains tvars period frames plain serve profile
      telemetry telemetry_format =
    let title, workload =
      if serve then
        let cfg =
          try Tm_serve.Server.config ~algo ~profile ~seed ~domains ()
          with Invalid_argument m ->
            Fmt.epr "error: %s@." m;
            exit 2
        in
        ( Fmt.str "serve[%s]" (Tm_serve.Workload.profile_name profile),
          Tm_serve.Server.chaos_workload cfg )
      else ("chaos", Tm_chaos.Runner.hot_set ~tvars)
    in
    Dashboard.run ~title ~workload ~algo ~scenario ~seed ~domains ~period
      ~frames ~plain ~telemetry ~telemetry_format
  in
  let scenario = scenario_arg () in
  let seed = seed_arg () in
  let domains = domains_arg () in
  let tvars = ntvars_arg () in
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
  let profile = profile_arg () in
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
  let telemetry_format = telemetry_format_arg () in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live liveness dashboard: run a chaos scenario on the real \
          multicore Stm runtime and redraw per-domain commit/abort rates, \
          injected-fault counters, STM phase-latency percentiles and each \
          domain's current Figure-2 class every scrape period.")
    Term.(
      const run $ algo_arg () $ scenario $ seed $ domains $ tvars $ period
      $ frames $ plain $ serve $ profile $ telemetry $ telemetry_format)

(* ------------------------------------------------------------------ *)

module Serve = Tm_serve.Server

let serve_cmd =
  let run list_profiles profile algo domains seed clients ops keys stripes
      no_batching journal queue_cap arrival rate scenario warmup window
      format out telemetry telemetry_format =
    if list_profiles then
      List.iter
        (fun p ->
          Fmt.pr "%-14s %s@."
            (Tm_serve.Workload.profile_name p)
            (Tm_serve.Workload.describe p))
        Tm_serve.Workload.profiles
    else begin
      let arrival =
        match (arrival, rate) with
        | None, None -> None
        | Some kind, Some rate ->
            if scenario <> None then begin
              Fmt.epr
                "error: --arrival applies to profile runs, not --scenario \
                 chaos runs@.";
              exit 2
            end;
            Some (Tm_serve.Arrival.make ~kind ~rate ~seed)
        | Some _, None ->
            Fmt.epr "error: --arrival requires --rate REQ_PER_S@.";
            exit 2
        | None, Some _ ->
            Fmt.epr
              "error: --rate requires --arrival (poisson or constant)@.";
            exit 2
      in
      let cfg =
        try
          Serve.config ~algo ~clients ~ops ~keys ~stripes
            ~batching:(not no_batching) ~journal ~queue_cap ?arrival
            ~profile ~seed ~domains ()
        with Invalid_argument m ->
          Fmt.epr "error: %s@." m;
          exit 2
      in
      let on_sample, tel_flush = telemetry_setup telemetry telemetry_format in
      match scenario with
      | Some scenario -> (
          (* Chaos against the serving path: verdict-gated like chaos. *)
          match Tm_chaos.Plan.make ~algo ~scenario ~seed ~domains () with
          | Error m ->
              Fmt.epr "error: %s@." m;
              exit 2
          | Ok plan ->
              let o = Serve.chaos_run ~warmup ~window ?on_sample plan cfg in
              (match format with
              | `Table -> Fmt.pr "%a@." (Serve.pp_chaos_table profile) o
              | `Json -> Fmt.pr "%s@." (Serve.chaos_to_json profile o));
              tel_flush ();
              (match out with
              | None -> ()
              | Some file ->
                  let oc = open_output file in
                  output_string oc (Serve.chaos_to_json profile o);
                  output_char oc '\n';
                  close_out oc;
                  Fmt.epr "verdicts written to %s@." file);
              exit (if o.Tm_chaos.Runner.o_ok then 0 else 1))
      | None ->
          let o = Serve.run ?on_sample cfg in
          (* Canonical JSON on stdout (byte-deterministic), the measured
             human summary on stderr, so `tmlive serve ... | cmp` gates
             work with the summary still visible. *)
          (match format with
          | `Json ->
              Fmt.pr "%s@." (Serve.to_json o);
              Fmt.epr "%a@." Serve.pp_summary o
          | `Table -> Fmt.pr "%a@." Serve.pp_summary o);
          tel_flush ();
          (match out with
          | None -> ()
          | Some file ->
              let oc = open_output file in
              output_string oc (Serve.to_json o);
              output_char oc '\n';
              close_out oc;
              Fmt.epr "canonical serve document written to %s@." file);
          if not (o.Serve.s_journal_ok && o.Serve.s_conserved) then exit 1
    end
  in
  let list_profiles =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the workload profiles and exit.")
  in
  let seed = seed_arg ~default:42 () in
  let domains = domains_arg () in
  let clients =
    Arg.(
      value & opt int 10_000
      & info [ "clients" ] ~docv:"N"
          ~doc:
            "Simulated client population, multiplexed onto the worker \
             domains (up to 10^6).")
  in
  let ops =
    Arg.(
      value & opt int 4
      & info [ "ops" ] ~docv:"N"
          ~doc:"Closed-loop rounds: requests per client.")
  in
  let keys =
    Arg.(value & opt int 1024 & info [ "keys" ] ~docv:"N" ~doc:"Store keys.")
  in
  let stripes =
    Arg.(
      value & opt int 64
      & info [ "stripes" ] ~docv:"N" ~doc:"Store stripes (combiner units).")
  in
  let no_batching =
    Arg.(
      value & flag
      & info [ "no-batching" ]
          ~doc:
            "Disable hot-stripe flat-combining: every admitted put \
             commits its own transaction.")
  in
  let journal =
    Arg.(
      value & flag
      & info [ "journal" ]
          ~doc:
            "Arm the store journal: every mutating transaction also \
             bumps a shared journal t-variable (conflict-universal \
             mutators; the canonical document then checks the journal \
             against the admitted-mutator count).")
  in
  let queue_cap =
    Arg.(
      value & opt int 2048
      & info [ "queue-cap" ] ~docv:"UNITS"
          ~doc:
            "Admission capacity of the per-domain bounded queue, in \
             deterministic cost units (gets cost 8, puts/cas 14, \
             transactions 8 + 6 per op; 12 units drain per arrival).")
  in
  let scenario =
    Arg.(
      value
      & opt (some scenario_conv) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            "Run a chaos scenario against the serving path instead of a \
             fixed-quota profile run (see $(b,chaos --list)); exits 1 on \
             any Figure-2 verdict mismatch.")
  in
  let arrival = arrival_arg () in
  let rate = rate_arg () in
  let warmup = warmup_arg () in
  let window = window_arg () in
  let format =
    let fmt_conv : [ `Table | `Json ] Arg.conv =
      Arg.enum [ ("table", `Table); ("json", `Json) ]
    in
    Arg.(
      value & opt fmt_conv `Json
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Stdout rendering: $(b,json) (the canonical byte-deterministic \
             document; the measured summary goes to stderr) or $(b,table) \
             (the human summary).")
  in
  let out =
    out_arg ~doc:"Also write the canonical JSON document here (CI artifact)."
      ()
  in
  let telemetry =
    telemetry_arg
      ~doc:
        "Export the serve telemetry here ($(b,-) for stdout): the \
         canonical registry scraped on the op clock at ts 0 and ts \
         total-requests (profile runs; byte-identical across equal runs) \
         or at the two watchdog samples (chaos runs)."
      ()
  in
  let telemetry_format = telemetry_format_arg () in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a deterministic client population against the sharded \
          transactional KV store: per-domain executors, bounded-queue \
          admission with overload shedding, hot-stripe flat-combining, \
          and Zipfian read-mostly / write-heavy / long-txn / mixed \
          profiles.  Emits a canonical byte-deterministic JSON document; \
          $(b,--scenario) instead injects chaos faults into the serving \
          path and gates on the per-algorithm Figure-2 verdicts.")
    Term.(
      const run $ list_profiles $ profile_arg () $ algo_arg () $ domains
      $ seed $ clients $ ops $ keys $ stripes $ no_batching $ journal
      $ queue_cap $ arrival $ rate $ scenario $ warmup $ window $ format
      $ out $ telemetry $ telemetry_format)

module Loadcurve = Tm_serve.Loadcurve

let loadcurve_cmd =
  let run profile algo domains seed clients ops keys queue_cap quantum
      arrival rates measure format out telemetry telemetry_format =
    let cfg =
      try
        Serve.config ~algo ~clients ~ops ~keys ~queue_cap ~profile ~seed
          ~domains ()
      with Invalid_argument m ->
        Fmt.epr "error: %s@." m;
        exit 2
    in
    let kind =
      Option.value arrival ~default:Tm_serve.Arrival.Poisson
    in
    let on_sample, tel_flush = telemetry_setup telemetry telemetry_format in
    let curve =
      try
        Loadcurve.run ~quantum_ns:quantum ?on_sample ~kind ~ladder:rates cfg
      with Invalid_argument m ->
        Fmt.epr "error: %s@." m;
        exit 2
    in
    (* Canonical JSON on stdout, the human table on stderr (json format),
       mirroring serve: `tmlive loadcurve | cmp` gates stay quiet. *)
    (match format with
    | `Json ->
        Fmt.pr "%s@." (Loadcurve.to_json curve);
        Fmt.epr "%a@." Loadcurve.pp_curve curve
    | `Table -> Fmt.pr "%a@." Loadcurve.pp_curve curve);
    tel_flush ();
    (match out with
    | None -> ()
    | Some file ->
        let oc = open_output file in
        output_string oc (Loadcurve.to_json curve);
        output_char oc '\n';
        close_out oc;
        Fmt.epr "canonical loadcurve document written to %s@." file);
    if measure then begin
      (* Measured rungs: real multicore runs, wall-clock results — all
         on stderr, never canonical. *)
      Fmt.epr "measuring the real server across the ladder (domains=%d, \
               algo=%s)...@."
        domains
        (Tm_stm.Stm.Algo.name algo);
      let ms = Loadcurve.measure ~kind ~ladder:rates cfg in
      List.iter (fun m -> Fmt.epr "%a@." Loadcurve.pp_mpoint m) ms;
      Fmt.epr "measured knee (achieved >= 0.85 offered): %.0f req/s@."
        (Loadcurve.knee (Loadcurve.measure_xy ms))
    end
  in
  let seed = seed_arg ~default:42 () in
  let domains = domains_arg () in
  let clients =
    Arg.(
      value & opt int 10_000
      & info [ "clients" ] ~docv:"N" ~doc:"Simulated client population.")
  in
  let ops =
    Arg.(
      value & opt int 4
      & info [ "ops" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let keys =
    Arg.(value & opt int 1024 & info [ "keys" ] ~docv:"N" ~doc:"Store keys.")
  in
  let queue_cap =
    Arg.(
      value & opt int 2048
      & info [ "queue-cap" ] ~docv:"UNITS"
          ~doc:
            "Admission capacity in cost units; the model sheds an arrival \
             facing more than queue-cap x quantum nanoseconds of backlog.")
  in
  let quantum =
    Arg.(
      value & opt int Loadcurve.default_quantum_ns
      & info [ "quantum" ] ~docv:"NS"
          ~doc:
            "Virtual service time per workload cost unit, in nanoseconds \
             (sets the model server's capacity).")
  in
  let rates =
    rates_arg
      ~default:
        [ 5_000.; 10_000.; 20_000.; 40_000.; 80_000.; 160_000.; 320_000. ]
      ()
  in
  let measure =
    Arg.(
      value & flag
      & info [ "measure" ]
          ~doc:
            "Also run the real multicore server once per rung with the \
             same arrival clock and report wall-clock achieved throughput \
             and open/closed p99 on stderr (informational; the canonical \
             document is unaffected).")
  in
  let format =
    format_arg
      ~doc:
        "Stdout rendering: $(b,table) (human) or $(b,json) (the canonical \
         byte-deterministic loadcurve document; the table goes to stderr)."
      ()
  in
  let out =
    out_arg ~doc:"Also write the canonical JSON document here (CI artifact)."
      ()
  in
  let telemetry =
    telemetry_arg
      ~doc:
        "Export the sweep's telemetry here ($(b,-) for stdout): one \
         deterministic scrape per rung (ts = rung index) with the model's \
         admitted/shed counters and queueing/service/sojourn hires \
         histograms."
      ()
  in
  let telemetry_format = telemetry_format_arg () in
  Cmd.v
    (Cmd.info "loadcurve"
       ~doc:
         "Sweep a rate ladder against the serving path's virtual-time \
          queueing model: offered vs achieved throughput, shed fraction \
          and queueing/service/sojourn percentiles (p50..p99.99) per \
          rung, plus the knee.  The canonical JSON document is \
          byte-identical across runs and across $(b,--domains) choices; \
          $(b,--measure) adds real open-loop server runs on stderr.")
    Term.(
      const run $ profile_arg () $ algo_arg () $ domains $ seed $ clients
      $ ops $ keys $ queue_cap $ quantum $ arrival_arg () $ rates $ measure
      $ format $ out $ telemetry $ telemetry_format)

let () =
  let info =
    Cmd.info "tmlive" ~version:"1.0.0"
      ~doc:
        "Executable companion to 'On the Liveness of Transactional Memory' \
         (PODC 2012)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            zoo_cmd; figures_cmd; simulate_cmd; game_cmd; matrix_cmd;
            monitor_cmd; sweep_cmd; trace_cmd; chaos_cmd; blame_cmd; top_cmd;
            serve_cmd; loadcurve_cmd;
            analyze_cmd; static_cmd; model_check_cmd; explore_cmd;
            crash_windows_cmd; dump_cmd; check_cmd;
          ]))
