(* Fixture: every site idiom the repo uses, each dominated by the
   disarmed check — direct guard, let-bound guard, conjunction, guard
   flowing into a closure, and a guarded match on the answer. *)

let direct () =
  if Atomic.get Obs.armed then Obs.fire Obs.Read;
  if Atomic.get Stm_core.Obs.armed then Obs.note Obs.Backoff 1 2

let let_bound ws =
  let armed = Atomic.get Obs.armed in
  if armed then Array.iteri (fun k id -> Obs.note Obs.Acquired id k) ws

let conjunction stolen =
  if stolen && Atomic.get Obs.armed then
    Obs.note (Obs.Conflict Obs.Stolen) 0 2

let decided () =
  if Atomic.get Obs.armed then
    match Obs.decide Obs.Publish 0 0 with Obs.Proceed -> () | _ -> ()
