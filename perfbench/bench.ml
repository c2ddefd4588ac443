(* The benchmark program: one workload per invocation.

     bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
               [--arrival-seed N] [--sweep-seed N] [--rev REV]

   Untraced (--trace 0) it prints every end-to-end metric of the
   workload; traced (--trace 1) it runs the layer ledger and prints the
   per-layer metrics.  Before the result it prints one row with the
   machine stamp and each check's outcome.  The last line of standard
   output is the result object; the exit code is 0 iff every check
   passed. *)

open Perfbench

let workloads = [ "serve-read"; "serve-longtxn"; "paper-pipeline" ]

let serve_of = function
  | "serve-read" -> Some E2e.serve_read
  | "serve-longtxn" -> Some E2e.serve_longtxn
  | _ -> None

(* Every digit the float holds; integers without a fraction. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metrics_json ms =
  String.concat ","
    (List.map
       (fun m ->
         Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.E2e.m_name
           (num m.E2e.m_value) m.E2e.m_unit)
       ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and rev = ref "unknown" in
  let arrival_seed = ref None and sweep_seed = ref None in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        " one of: " ^ String.concat ", " workloads );
      ("--seed", Arg.Set_int seed, " workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " measured time (default 10)");
      ("--trace", Arg.Set_int trace, " 1 = traced layer-ledger run");
      ( "--arrival-seed",
        Arg.Int (fun s -> arrival_seed := Some s),
        " open-loop arrival seed (default: --seed)" );
      ( "--sweep-seed",
        Arg.Int (fun s -> sweep_seed := Some s),
        " first sweep seed (default: --seed)" );
      ("--rev", Arg.Set_string rev, " source revision for the stamp");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected " ^ a)))
    "bench.exe --workload NAME";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("bench: unknown workload " ^ !workload);
    exit 2
  end;
  let arrival_seed = Option.value !arrival_seed ~default:!seed in
  let sweep_seed = Option.value !sweep_seed ~default:!seed in
  let mark = Probe.steal_mark () in
  let r =
    if !trace = 1 then begin
      let spans_dir = Filename.concat "perfbench" "spans" in
      let spans_dir =
        if Sys.file_exists "perfbench" then begin
          if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
          Some spans_dir
        end
        else None
      in
      let metrics, checks =
        Layers.run ?spans_dir ~seed:!seed ~arrival_seed ~sweep_seed ()
      in
      {
        E2e.r_metrics = metrics;
        r_measured = [];
        r_checks = checks;
        r_attempted = List.length checks;
        r_failed =
          List.length (List.filter (fun (_, r) -> Result.is_error r) checks);
        r_jobs = 1;
        r_steal = Probe.steal_share mark;
      }
    end
    else
      match serve_of !workload with
      | Some sv ->
          E2e.run_serve sv ~seed:!seed ~arrival_seed ~seconds:!seconds
      | None -> E2e.run_pipeline ~sweep_seed ~seconds:!seconds
  in
  let stamp = Probe.stamp ~rev:!rev ~steal:r.E2e.r_steal in
  let bad =
    List.filter_map
      (fun (n, r) ->
        match r with Ok () -> None | Error e -> Some (n ^ ": " ^ e))
      r.E2e.r_checks
  in
  let correct = bad = [] in
  Printf.printf
    "{\"row\":{\"workload\":%S,\"seed\":%d,\"trace\":%d,\"stamp\":%s,\
     \"jobs\":%d,\"checks_passed\":%d,\
     \"checks_failed\":[%s],\
     \"metrics\":{%s},\"measured\":{%s}}}\n"
    !workload !seed !trace (Probe.stamp_json stamp) r.E2e.r_jobs
    (List.length r.E2e.r_checks - List.length bad)
    (String.concat "," (List.map (Printf.sprintf "%S") bad))
    (metrics_json r.E2e.r_metrics)
    (metrics_json r.E2e.r_measured);
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct r.E2e.r_attempted r.E2e.r_failed (metrics_json r.E2e.r_metrics);
  exit (if correct then 0 else 1)
