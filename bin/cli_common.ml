(* Shared plumbing for the tmlive subcommands: argument converters, the
   common simulation flags, classified errors, input and output files,
   the pooled sweep dispatch, traced-run assembly and the chaos-session
   skeleton (the pieces the command modules share). *)

open Cmdliner

(* A classified error: [error: …] on stderr and exit 2, never an
   uncaught exception. *)
let die fmt =
  Fmt.kstr
    (fun m ->
      Fmt.epr "error: %s@." m;
      exit 2)
    fmt

(* Runs [f], turning the [Invalid_argument] of a rejected configuration
   into a classified error. *)
let valid f = try f () with Invalid_argument m -> die "%s" m

(* ---- converters ---- *)

let tm_conv =
  let parse s =
    match Tm_impl.Registry.find s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
            (Fmt.str "unknown TM %S (try: %s)" s
               (String.concat ", " Tm_impl.Registry.names)))
  in
  let print ppf e = Fmt.string ppf e.Tm_impl.Registry.entry_name in
  Arg.conv (parse, print)

let sched_conv =
  let parse = function
    | "rr" | "round-robin" -> Ok Tm_sim.Runner.Round_robin
    | "uniform" | "random" -> Ok Tm_sim.Runner.Uniform
    | s -> (
        match int_of_string_opt s with
        | Some q when q > 0 -> Ok (Tm_sim.Runner.Quantum q)
        | Some _ | None ->
            Error (`Msg "scheduler: rr | uniform | <quantum size>"))
  in
  let print ppf = function
    | Tm_sim.Runner.Round_robin -> Fmt.string ppf "rr"
    | Tm_sim.Runner.Uniform -> Fmt.string ppf "uniform"
    | Tm_sim.Runner.Quantum q -> Fmt.pf ppf "%d" q
  in
  Arg.conv (parse, print)

let fault_conv =
  let names () = List.map fst (Tm_sim.Sweep.fault_patterns ()) in
  let parse s =
    if List.mem s (names ()) then Ok s
    else
      Error
        (`Msg
          (Fmt.str "unknown fault pattern %S (try: %s)" s
             (String.concat ", " (names ()))))
  in
  Arg.conv (parse, Fmt.string)

let scenario_conv =
  let parse s =
    if List.mem s Tm_chaos.Plan.scenarios then Ok s
    else
      Error
        (`Msg
          (Fmt.str "unknown scenario %S (try: %s)" s
             (String.concat ", " Tm_chaos.Plan.scenarios)))
  in
  Arg.conv (parse, Fmt.string)

let algo_conv : Tm_stm.Stm.Algo.t Arg.conv =
  let parse s =
    match Tm_stm.Stm.Algo.of_string s with
    | Ok a -> Ok a
    | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf a -> Fmt.string ppf (Tm_stm.Stm.Algo.name a))

let algo_arg ?(default = Tm_stm.Stm.Algo.Tl2) () =
  Arg.(
    value
    & opt algo_conv default
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:
          (Fmt.str
             "STM algorithm to run: %s."
             (String.concat ", "
                (List.map
                   (fun a ->
                     Fmt.str "$(b,%s) (%s)" (Tm_stm.Stm.Algo.name a)
                       (Tm_stm.Stm.Algo.progress_label a))
                   Tm_stm.Stm.Algo.all))))

let profile_conv : Tm_serve.Workload.profile Arg.conv =
  let parse s =
    match Tm_serve.Workload.profile_of_string s with
    | Ok p -> Ok p
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    (parse, fun ppf p -> Fmt.string ppf (Tm_serve.Workload.profile_name p))

let profile_arg ?(default = Tm_serve.Workload.Read_mostly) () =
  Arg.(
    value
    & opt profile_conv default
    & info [ "profile" ] ~docv:"PROFILE"
        ~doc:
          (Fmt.str "Workload profile: %s."
             (String.concat ", "
                (List.map
                   (fun p ->
                     Fmt.str "$(b,%s) (%s)"
                       (Tm_serve.Workload.profile_name p)
                       (Tm_serve.Workload.describe p))
                   Tm_serve.Workload.profiles))))

let arrival_conv : Tm_serve.Arrival.kind Arg.conv =
  let parse s =
    match Tm_serve.Arrival.kind_of_string s with
    | Some k -> Ok k
    | None ->
        Error
          (`Msg (Fmt.str "unknown arrival process %S (try: poisson, constant)" s))
  in
  Arg.conv
    (parse, fun ppf k -> Fmt.string ppf (Tm_serve.Arrival.kind_name k))

(* Rates are requests per second; every open-loop flag shares one
   converter so a zero, negative or NaN rate is rejected in one place
   with the same message. *)
let rate_conv : float Arg.conv =
  let parse s =
    match float_of_string_opt s with
    | Some r when r > 0.0 && Float.is_finite r -> Ok r
    | Some _ ->
        Error
          (`Msg
            (Fmt.str
               "rate %s: must be a positive (finite) number of requests \
                per second"
               s))
    | None -> Error (`Msg (Fmt.str "rate %S: not a number" s))
  in
  Arg.conv (parse, fun ppf r -> Fmt.pf ppf "%g" r)

let arrival_arg () =
  Arg.(
    value
    & opt (some arrival_conv) None
    & info [ "arrival" ] ~docv:"PROCESS"
        ~doc:
          "Open-loop arrival process: $(b,poisson) (exponential \
           inter-arrivals) or $(b,constant) (fixed period).  Requires \
           $(b,--rate); without this flag the run is closed-loop.")

let rate_arg () =
  Arg.(
    value
    & opt (some rate_conv) None
    & info [ "rate" ] ~docv:"REQ_PER_S"
        ~doc:"Offered arrival rate in requests per second (positive).")

let rates_arg ~default () =
  Arg.(
    value
    & opt (list rate_conv) default
    & info [ "rates" ] ~docv:"R1,R2,..."
        ~doc:
          "Rate ladder: comma-separated offered rates in requests per \
           second, swept in order (each positive).")

(* ---- the chaos-session flags (chaos / blame / top / serve) ---- *)

let domains_arg ?(default = 4) () =
  Arg.(
    value & opt int default
    & info [ "d"; "domains" ] ~doc:"Worker domains to spawn (>= 2).")

let warmup_arg () =
  Arg.(
    value & opt float 0.05
    & info [ "warmup" ] ~docv:"SECONDS"
        ~doc:"Settle time before the first watchdog sample.")

let window_arg () =
  Arg.(
    value & opt float 0.15
    & info [ "window" ] ~docv:"SECONDS"
        ~doc:"Observation window between the two watchdog samples.")

let scenario_arg ?(default = "healthy") () =
  Arg.(
    value
    & opt scenario_conv default
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:"Fault scenario to inject (see $(b,chaos --list)).")

let out_arg ~doc () =
  Arg.(
    value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let trace_arg ~doc () =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* ---- output-format flags ---- *)

(* One table/json converter for every subcommand that renders a document
   on stdout (chaos --format, sweep --metrics-format, analyze --format):
   same names, same error messages, one place to extend. *)
let table_json_conv : [ `Table | `Json ] Arg.conv =
  Arg.enum [ ("table", `Table); ("json", `Json) ]

let format_arg ?(names = [ "format" ]) ~doc () =
  Arg.(value & opt table_json_conv `Table & info names ~docv:"FORMAT" ~doc)

(* One --fail-on threshold for every findings-emitting subcommand
   (analyze, static): which severities turn into exit 1. *)
let fail_on_conv : Tm_analysis.Engine.fail_level Arg.conv =
  Arg.enum [ ("error", `Error); ("warning", `Warning); ("never", `Never) ]

let fail_on_arg () =
  Arg.(
    value
    & opt fail_on_conv `Error
    & info [ "fail-on" ] ~docv:"LEVEL"
        ~doc:
          "Exit 1 when findings at or above this severity are reported: \
           $(b,error) (the default), $(b,warning), or $(b,never) (always \
           exit 0).")

let telemetry_format_conv : [ `Openmetrics | `Jsonl ] Arg.conv =
  Arg.enum [ ("openmetrics", `Openmetrics); ("jsonl", `Jsonl) ]

let telemetry_arg ~doc () =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE" ~doc)

let telemetry_format_arg () =
  Arg.(
    value
    & opt telemetry_format_conv `Openmetrics
    & info [ "telemetry-format" ] ~docv:"FORMAT"
        ~doc:
          "Telemetry encoding: $(b,openmetrics) (Prometheus text \
           exposition of the final scrape) or $(b,jsonl) (one JSON object \
           per scrape — the whole time series).")

(* Opens an output file.  A path that cannot be written is a classified
   error (exit 2), not an uncaught [Sys_error]. *)
let open_output file = try open_out file with Sys_error m -> die "%s" m

(* Reads an input file whole; a path that cannot be read is a
   classified error too. *)
let read_input file =
  try In_channel.with_open_bin file In_channel.input_all
  with Sys_error m -> die "%s" m

(* The output file an option names, opened now so that a path that
   cannot be written fails before the run.  The returned function fills
   it once the run is done ([write]), closes it and prints [note path];
   without a file it does nothing. *)
let output_to = function
  | None -> fun _ _ -> ()
  | Some path ->
      let oc = open_output path in
      fun write note ->
        write oc;
        close_out oc;
        note path

(* Writers for [output_to]: a document and its newline, a Chrome trace. *)
let line s oc =
  output_string oc s;
  output_char oc '\n'

let chrome events oc = Tm_trace.Export.to_chrome_channel oc events

(* A telemetry sink for one command invocation: [add] collects scrape
   snapshots (plug it in as a sampler consumer / [on_sample]), [flush]
   writes them out.  OpenMetrics is a point-in-time exposition, so it
   gets the last snapshot; JSONL gets the whole series.  [file] "-"
   means stdout; any other file is opened here, up front. *)
let telemetry_writer file format =
  let oc = if file = "-" then stdout else open_output file in
  let snaps = ref [] in
  let add s = snaps := s :: !snaps in
  let flush () =
    match List.rev !snaps with
    | [] -> if file <> "-" then close_out oc
    | l ->
        let write oc =
          match format with
          | `Openmetrics ->
              let last = List.nth l (List.length l - 1) in
              output_string oc (Tm_telemetry.Export.to_openmetrics last)
          | `Jsonl ->
              List.iter
                (fun s ->
                  output_string oc (Tm_telemetry.Export.to_jsonl s);
                  output_char oc '\n')
                l
        in
        if file = "-" then begin
          (* Anything the command printed via Format must land first. *)
          Format.print_flush ();
          write stdout;
          flush stdout
        end
        else begin
          write oc;
          close_out oc;
          Fmt.epr "telemetry: %d snapshot%s written to %s@." (List.length l)
            (if List.length l = 1 then "" else "s")
            file
        end
  in
  (add, flush)

(* The common [--telemetry FILE] wiring: an optional [on_sample]
   consumer plus an always-callable flush.  Every command that threads
   scrape snapshots into [telemetry_writer] goes through here instead
   of repeating the [Option.map] dance. *)
let telemetry_setup telemetry telemetry_format =
  match telemetry with
  | None -> (None, fun () -> ())
  | Some file ->
      let add, flush = telemetry_writer file telemetry_format in
      (Some add, flush)

(* ---- the common simulation flags (defaults vary per subcommand) ---- *)

let nprocs_arg ?(default = 3) () =
  Arg.(
    value & opt int default
    & info [ "p"; "procs" ] ~doc:"Number of processes.")

let ntvars_arg ?(default = 4) () =
  Arg.(
    value & opt int default
    & info [ "t"; "tvars" ] ~doc:"Number of t-variables.")

let steps_arg ?(default = 400) () =
  Arg.(value & opt int default & info [ "n"; "steps" ] ~doc:"Simulation steps.")

let seed_arg ?(default = 0) () =
  Arg.(value & opt int default & info [ "seed" ] ~doc:"PRNG seed.")

let sched_arg () =
  Arg.(
    value
    & opt sched_conv Tm_sim.Runner.Uniform
    & info [ "sched" ] ~doc:"Scheduler: rr, uniform, or a quantum size.")

let jobs_arg ~doc () =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc)

let tms_arg ~doc () =
  Arg.(value & opt (list tm_conv) [] & info [ "tm" ] ~docv:"NAMES" ~doc)

let faults_arg ~doc () =
  Arg.(value & opt (list fault_conv) [] & info [ "faults" ] ~docv:"PATTERNS" ~doc)

(* The (TM x fault pattern x seed) grid of sweep, trace and analyze
   --sweep: no TM means the whole zoo, no pattern all four. *)
let grid ~tms ~faults ~seeds ~nprocs ~ntvars ~steps ~sched =
  let tms = match tms with [] -> Tm_impl.Registry.all | tms -> tms in
  let all = Tm_sim.Sweep.fault_patterns ~nprocs ~ntvars ~steps ~sched () in
  let patterns =
    match faults with
    | [] -> all
    | names ->
        (* Names were validated by [fault_conv]; the assoc cannot fail. *)
        List.map (fun n -> (n, List.assoc n all)) names
  in
  (patterns, Tm_sim.Sweep.grid ~tms ~patterns ~seeds ())

(* ---- sweep dispatch ---- *)

(* One place decides sequential vs pooled execution; results are
   bit-for-bit identical for every [jobs] value. *)
let run_sweep ~jobs ~trace configs =
  let jobs = max 1 jobs in
  if jobs > 1 then
    Tm_sim.Pool.with_pool ~jobs (fun pool ->
        Tm_sim.Sweep.run ~pool ~trace configs)
  else Tm_sim.Sweep.run ~trace configs

(* ---- traced-run assembly ---- *)

module Tev = Tm_trace.Trace_event

(* A run's history and trace; only a sweep run with [~trace:true] keeps
   them, and every caller here runs it so. *)
let traced (r : Tm_sim.Sweep.result) =
  match r.Tm_sim.Sweep.r_traced with
  | Some t -> t
  | None -> invalid_arg "traced: the sweep ran without ~trace:true"

let metadata_event ~pid label =
  {
    Tev.ts = 0;
    pid;
    tid = 0;
    cat = Tev.Sched;
    name = "process_name";
    phase = Tev.Metadata;
    args = [ ("name", Tev.Str label) ];
  }

(* A run's full trace: a process-name metadata record, the runner's
   events, then the monitor's streamed verdict events — all tagged with
   the run's grid index as pid, so a trace viewer shows one process lane
   per configuration.  Composing in canonical grid order makes the merged
   trace independent of how the sweep was sharded across jobs. *)
let run_trace_events i (r : Tm_sim.Sweep.result) =
  let retag (e : Tev.t) = { e with Tev.pid = i } in
  let t = traced r in
  let col = Tm_trace.Sink.collector () in
  ignore
    (Tm_safety.Monitor.run_traced
       ~trace:(Tm_trace.Sink.collector_sink col)
       t.Tm_sim.Sweep.t_history);
  (metadata_event ~pid:i (Tm_sim.Sweep.label r.Tm_sim.Sweep.r_config)
  :: List.map retag t.Tm_sim.Sweep.t_trace)
  @ List.map retag (Tm_trace.Sink.collected col)

let combined_trace results = List.concat (List.mapi run_trace_events results)

(* A real multicore workload on the [Stm] runtime, traced: [jobs] domains
   transfer between [ntvars] accounts.  Returns the recorded events (and
   checks conservation as a sanity net). *)
let stm_demo_events ~jobs ~ntvars ~steps =
  let module Stm = Tm_stm.Stm in
  let n = max 2 ntvars in
  let accounts = Array.init n (fun _ -> Stm.tvar 1000) in
  Stm.Trace.start ~capacity:(1 lsl 18) ();
  let worker k () =
    let st = ref (k + 1) in
    for _ = 1 to steps do
      let r = (!st * 48271) mod 0x7FFFFFFF in
      st := r;
      let src = r mod n and dst = (r / n) mod n in
      Stm.atomically (fun () ->
          let v = Stm.read accounts.(src) in
          Stm.write accounts.(src) (v - 1);
          Stm.write accounts.(dst) (Stm.read accounts.(dst) + 1))
    done
  in
  let domains = List.init (max 1 jobs) (fun k -> Domain.spawn (worker k)) in
  List.iter Domain.join domains;
  Stm.Trace.stop ();
  let total = Array.fold_left (fun acc a -> acc + Stm.read a) 0 accounts in
  if total <> 1000 * n then
    Fmt.epr "stm demo: conservation broken (%d /= %d)!@." total (1000 * n);
  (Stm.Trace.events (), Stm.Trace.dropped ())

(* ---- the chaos-session skeleton (chaos, blame, serve --scenario) ---- *)

(* Makes the fault plan (exit 2 on a bad one), opens [out] and [trace]
   before the run, runs the session with the telemetry consumer, renders
   it on stdout, flushes the telemetry, writes [document] to [out] and
   the run's events to [trace] (labelled [name/scenario/algo/seed=N]),
   and exits 1 on any verdict mismatch. *)
let chaos_session ~name ~algo ~scenario ~seed ~domains ~run ~render
    ~document ~note ~out ?trace ~telemetry ~telemetry_format () : unit =
  let plan =
    match Tm_chaos.Plan.make ~algo ~scenario ~seed ~domains () with
    | Ok plan -> plan
    | Error m -> die "%s" m
  in
  let write_out = output_to out and write_trace = output_to trace in
  let on_sample, tel_flush = telemetry_setup telemetry telemetry_format in
  let o : Tm_chaos.Runner.outcome = run on_sample plan in
  render o;
  tel_flush ();
  write_out (fun oc -> output_string oc (document o)) note;
  if trace <> None then begin
    let label =
      Fmt.str "%s/%s/%s/seed=%d" name scenario (Tm_stm.Stm.Algo.name algo) seed
    in
    let events = metadata_event ~pid:0 label :: o.Tm_chaos.Runner.o_events in
    write_trace (chrome events)
      (Fmt.epr "trace: %d events written to %s@." (List.length events))
  end;
  exit (if o.Tm_chaos.Runner.o_ok then 0 else 1)
