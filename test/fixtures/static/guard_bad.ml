(* Fixture: unguarded sites, one per seam entry point, plus one
   suppressed by the allow escape. *)

let bad_fire () = Obs.fire Obs.Read

let bad_note id = Obs.note Obs.Released id 0

let bad_decide () =
  match Obs.decide Obs.Publish 0 0 with _ -> ()

let bad_conflict a id = Obs.decide (Obs.Conflict Obs.Stolen) a id

let suppressed () =
  (* tmstatic: allow seam-guard *)
  Obs.fire Obs.Read
