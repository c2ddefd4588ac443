(* Fixture: every arm/disarm pairing the leak rule accepts — direct
   unsubscribe, ~finally-bound unsubscribe, Stm.recover, and
   Trace.stop. *)

let chaos_paired () =
  let h = Stm.Obs.subscribe (fun _ _ _ -> Stm.Obs.Proceed) in
  run_workload ();
  Stm.Obs.unsubscribe h

let tel_finally reg =
  let _, h = Stm_probe.install reg in
  Fun.protect ~finally:(fun () -> Stm.Obs.unsubscribe h) run_workload

let blame_recover g =
  ignore (Stm.Obs.subscribe (Blame_graph.subscriber g));
  run_workload ();
  Stm.recover ()

let trace_paired () =
  Stm.Trace.start ();
  run_workload ();
  Stm.Trace.stop ()
