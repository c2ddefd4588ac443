(* tmlive: command-line front end to the TM-liveness library.  This file
   is the command table; the commands live in one module per part:

     Paper_cmds     - zoo, figures, simulate, game, matrix, monitor,
                      model-check, sweep, trace, explore, crash-windows,
                      dump, check
     Analysis_cmds  - analyze, static
     Multicore_cmds - chaos, blame, top (drawn by [Dashboard])
     Serving_cmds   - serve, loadcurve

   Converters, common flags, input/output files and the chaos-session
   skeleton live in [Cli_common]. *)

open Cmdliner

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
          Paper_cmds.
            [
              zoo_cmd;
              figures_cmd;
              simulate_cmd;
              game_cmd;
              matrix_cmd;
              monitor_cmd;
              sweep_cmd;
              trace_cmd;
              Multicore_cmds.chaos_cmd;
              Multicore_cmds.blame_cmd;
              Multicore_cmds.top_cmd;
              Serving_cmds.serve_cmd;
              Serving_cmds.loadcurve_cmd;
              Analysis_cmds.analyze_cmd;
              Analysis_cmds.static_cmd;
              model_check_cmd;
              explore_cmd;
              crash_windows_cmd;
              dump_cmd;
              check_cmd;
            ]))
