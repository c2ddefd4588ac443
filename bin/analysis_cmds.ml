(* The analyzers: [analyze] lints histories and traces, [static] checks
   the repo's own sources.  Both print a findings report, can write the
   findings JSON document, and exit on a severity threshold. *)

open Cmdliner
open Cli_common
module An = Tm_analysis

(* The flags and the report the two analyzers share. *)

let rules_arg () =
  Arg.(
    value & opt string "all"
    & info [ "rules" ] ~docv:"RULES"
        ~doc:
          "Rule subset: $(b,all) or a comma-separated list of rule ids (see \
           $(b,--list-rules)).")

let findings_format_arg () =
  format_arg ~doc:"Findings on stdout as $(b,table) or $(b,json)." ()

let findings_out_arg () =
  out_arg ~doc:"Also write the findings JSON document here (CI artifact)." ()

let list_rules_arg () =
  Arg.(
    value & flag
    & info [ "list-rules" ] ~doc:"Print the rule catalogue and exit.")

let selection valid rules_str =
  match An.Engine.parse_selection valid rules_str with
  | Ok ids -> ids
  | Error m -> die "%s" m

(* Prints the findings ([header] first in table form), writes their
   document with [write], and exits at the [fail_on] threshold. *)
let report ?(header = ignore) ~format ~write ~fail_on findings =
  let findings = List.sort An.Finding.compare findings in
  (match format with
  | `Table ->
      header ();
      Fmt.pr "%a" An.Finding.pp_report findings
  | `Json -> print_string (An.Finding.list_to_json findings));
  write
    (fun oc -> output_string oc (An.Finding.list_to_json findings))
    (Fmt.epr "findings written to %s@.");
  exit (An.Engine.exit_code_at fail_on findings)

let analyze_cmd =
  let run histories traces figures sweep stm_demo rules_str format out
      fail_on list_rules tms faults seeds nprocs ntvars steps sched jobs =
    if list_rules then Fmt.pr "%a" An.Engine.pp_catalogue ()
    else begin
      let rules = selection An.Engine.rule_ids rules_str in
      let write = output_to out in
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
          match Tm_history.Codec.history_of_string_lax (read_input file) with
          | Error m -> die "%s: %s" file m
          | Ok h -> analyze_history ~subject:(Filename.basename file) h)
        histories;
      List.iter
        (fun file ->
          match Tm_trace.Export.of_chrome_string (read_input file) with
          | Error m -> die "%s: %s" file m
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
        let _, configs =
          grid ~tms ~faults
            ~seeds:(List.init seeds (fun i -> i + 1))
            ~nprocs ~ntvars ~steps ~sched
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
        (* A truncated ring fabricates protocol violations; refuse to lint
           a partial trace. *)
        if dropped > 0 then
          die
            "stm demo dropped %d events (ring too small for this workload); \
             not analyzing a truncated trace"
            dropped;
        record (An.Engine.run_trace ~rules ~subject:"stm-demo" events)
      end;
      report ~format ~write ~fail_on !findings
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
  let seeds =
    Arg.(
      value & opt int 2
      & info [ "seeds" ] ~doc:"Seeds per configuration for $(b,--sweep).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Lint histories and traces: well-formedness and transaction-\
          identity checks, liveness-class diagnostics, and trace-level \
          race / lock-order / commit-protocol analyzers.  Exits 1 if any \
          finding at or above $(b,--fail-on) is reported, so CI can gate \
          on it.")
    Term.(
      const run $ histories $ traces $ figures $ sweep $ stm_demo
      $ rules_arg () $ findings_format_arg () $ findings_out_arg ()
      $ fail_on_arg () $ list_rules_arg ()
      $ tms_arg ~doc:"TMs for $(b,--sweep) (default: the whole zoo)." ()
      $ faults_arg ~doc:"Fault patterns for $(b,--sweep) (default: all four)."
          ()
      $ seeds $ nprocs_arg () $ ntvars_arg () $ steps_arg () $ sched_arg ()
      $ jobs_arg ~doc:"Worker domains for $(b,--sweep) / $(b,--stm)." ())

let static_cmd =
  let module Sc = Tm_staticcheck.Checker in
  let run root rules_str format out fail_on list_rules =
    if list_rules then Fmt.pr "%a" Sc.pp_catalogue ()
    else begin
      let rules = selection Sc.rule_ids rules_str in
      let root =
        match root with
        | Some dir -> dir
        | None -> (
            match Sc.find_root () with
            | Some dir -> dir
            | None ->
                die
                  "no repo root found above the working directory (looked \
                   for dune-project + lib/stm); use --root")
      in
      let write = output_to out in
      match Sc.run ~rules ~root () with
      | Error m -> die "%s" m
      | Ok r ->
          report
            ~header:(fun () ->
              Fmt.pr "%d file(s) scanned under %s@." r.Sc.files_scanned root)
            ~format ~write ~fail_on r.Sc.findings
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
    Term.(
      const run $ root $ rules_arg () $ findings_format_arg ()
      $ findings_out_arg () $ fail_on_arg () $ list_rules_arg ())
