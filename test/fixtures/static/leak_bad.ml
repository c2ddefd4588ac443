(* Fixture: seams armed with no paired disarm in the same top-level
   definition.  recover() does not stop tracing, so the Trace leak
   stands even with a recover call. *)

let chaos_leak () =
  ignore (Stm.Obs.subscribe (fun _ _ _ -> Stm.Obs.Proceed));
  run_workload ()

let trace_leak_despite_recover () =
  Stm.Trace.start ();
  run_workload ();
  Stm.recover ()

let suppressed_leak reg =
  (* tmstatic: allow armed-leak *)
  Stm_probe.install reg;
  run_workload ()
