(* Fixture: a core whose sites match the Mini announcement exactly
   (its Lock comes through the shared helper). *)

let read tv =
  if Atomic.get Obs.armed then Obs.fire Obs.Read;
  Atomic.get tv

let commit ~aggressor ~tvar ids =
  publish_all ids;
  if Atomic.get Obs.armed then
    Obs.note (Obs.Conflict Obs.Validation) aggressor tvar
