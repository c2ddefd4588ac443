(* exported-unused fixture: a user that never opens the module, so its
   bare [shadowed] is its own binding, not a use of the export. *)

let shadowed = 0
let c = shadowed
