(* The serving commands: [serve] runs a client population against the
   sharded transactional store (or a chaos scenario against its serving
   path), [loadcurve] sweeps a rate ladder against its queueing model. *)

open Cmdliner
open Cli_common
module Serve = Tm_serve.Server
module Loadcurve = Tm_serve.Loadcurve

let keys_arg () =
  Arg.(value & opt int 1024 & info [ "keys" ] ~docv:"N" ~doc:"Store keys.")

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
            if scenario <> None then
              die "--arrival applies to profile runs, not --scenario chaos runs";
            Some (Tm_serve.Arrival.make ~kind ~rate ~seed)
        | Some _, None -> die "--arrival requires --rate REQ_PER_S"
        | None, Some _ -> die "--rate requires --arrival (poisson or constant)"
      in
      let cfg =
        valid (fun () ->
            Serve.config ~algo ~clients ~ops ~keys ~stripes
              ~batching:(not no_batching) ~journal ~queue_cap ?arrival
              ~profile ~seed ~domains ())
      in
      match scenario with
      | Some scenario ->
          (* Chaos against the serving path: verdict-gated like chaos. *)
          chaos_session ~name:"serve" ~algo ~scenario ~seed ~domains
            ~run:(fun on_sample plan ->
              Serve.chaos_run ~warmup ~window ?on_sample plan cfg)
            ~render:(fun o ->
              match format with
              | `Table -> Fmt.pr "%a@." (Serve.pp_chaos_table profile) o
              | `Json -> Fmt.pr "%s@." (Serve.chaos_to_json profile o))
            ~document:(fun o -> Serve.chaos_to_json profile o ^ "\n")
            ~note:(Fmt.epr "verdicts written to %s@.")
            ~out ~telemetry ~telemetry_format ()
      | None ->
          let write = output_to out in
          let on_sample, tel_flush =
            telemetry_setup telemetry telemetry_format
          in
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
          write
            (fun oc -> line (Serve.to_json o) oc)
            (Fmt.epr "canonical serve document written to %s@.");
          if not (o.Serve.s_journal_ok && o.Serve.s_conserved) then exit 1
    end
  in
  let list_profiles =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the workload profiles and exit.")
  in
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
  let telemetry =
    telemetry_arg
      ~doc:
        "Export the serve telemetry here ($(b,-) for stdout): the \
         canonical registry scraped on the op clock at ts 0 and ts \
         total-requests (profile runs; byte-identical across equal runs) \
         or at the two watchdog samples (chaos runs)."
      ()
  in
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
      const run $ list_profiles $ profile_arg () $ algo_arg () $ domains_arg ()
      $ seed_arg ~default:42 () $ clients $ ops $ keys_arg () $ stripes
      $ no_batching $ journal $ queue_cap $ arrival_arg () $ rate_arg ()
      $ scenario $ warmup_arg () $ window_arg () $ format
      $ out_arg
          ~doc:"Also write the canonical JSON document here (CI artifact)."
          ()
      $ telemetry $ telemetry_format_arg ())

let loadcurve_cmd =
  let run profile algo domains seed clients ops keys queue_cap quantum
      arrival rates measure format out telemetry telemetry_format =
    let cfg =
      valid (fun () ->
          Serve.config ~algo ~clients ~ops ~keys ~queue_cap ~profile ~seed
            ~domains ())
    in
    let kind = Option.value arrival ~default:Tm_serve.Arrival.Poisson in
    let write = output_to out in
    let on_sample, tel_flush = telemetry_setup telemetry telemetry_format in
    let curve =
      valid (fun () ->
          Loadcurve.run ~quantum_ns:quantum ?on_sample ~kind ~ladder:rates cfg)
    in
    (* Canonical JSON on stdout, the human table on stderr (json format),
       mirroring serve: `tmlive loadcurve | cmp` gates stay quiet. *)
    (match format with
    | `Json ->
        Fmt.pr "%s@." (Loadcurve.to_json curve);
        Fmt.epr "%a@." Loadcurve.pp_curve curve
    | `Table -> Fmt.pr "%a@." Loadcurve.pp_curve curve);
    tel_flush ();
    write
      (fun oc -> line (Loadcurve.to_json curve) oc)
      (Fmt.epr "canonical loadcurve document written to %s@.");
    if measure then begin
      (* Measured rungs: real multicore runs, wall-clock results — all
         on stderr, never canonical. *)
      Fmt.epr
        "measuring the real server across the ladder (domains=%d, \
         algo=%s)...@."
        domains
        (Tm_stm.Stm.Algo.name algo);
      let ms = Loadcurve.measure ~kind ~ladder:rates cfg in
      List.iter (fun m -> Fmt.epr "%a@." Loadcurve.pp_mpoint m) ms;
      Fmt.epr "measured knee (achieved >= 0.85 offered): %.0f req/s@."
        (Loadcurve.knee (Loadcurve.measure_xy ms))
    end
  in
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
  let telemetry =
    telemetry_arg
      ~doc:
        "Export the sweep's telemetry here ($(b,-) for stdout): one \
         deterministic scrape per rung (ts = rung index) with the model's \
         admitted/shed counters and queueing/service/sojourn hires \
         histograms."
      ()
  in
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
      const run $ profile_arg () $ algo_arg () $ domains_arg ()
      $ seed_arg ~default:42 () $ clients $ ops $ keys_arg () $ queue_cap
      $ quantum $ arrival_arg () $ rates $ measure $ format
      $ out_arg
          ~doc:"Also write the canonical JSON document here (CI artifact)."
          ()
      $ telemetry $ telemetry_format_arg ())
