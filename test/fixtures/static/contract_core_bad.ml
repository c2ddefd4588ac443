(* Fixture: a core that violates the Mini announcement both ways —
   it reaches Validate (unannounced) and never reaches Read, Lock or
   the Validation conflict (all announced). *)

let read tv =
  if Atomic.get Obs.armed then Obs.fire Obs.Validate;
  Atomic.get tv
