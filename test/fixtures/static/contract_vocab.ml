(* Fixture: a miniature stm_core declaring the site vocabulary
   seam-contract reads its constructor set from. *)

module Obs = struct
  type cause = Read_conflict | Validation | Stolen
  type site = Begin | Read | Lock | Validate | Conflict of cause | Commit

  let armed = Atomic.make false
end

(* A shared helper: a core calling it reaches its sites. *)
let publish_all ids =
  if Atomic.get Obs.armed then List.iter (fun id -> Obs.note Obs.Lock id 0) ids
