(* exported-unused fixture: the module's own file, whose uses of its
   own exports do not count. *)

let dead = 1
let used_qualified = dead
let used_aliased = dead
let used_bare = dead
let test_only = dead
let excused = dead
let excused_without_reason = dead

module Inner = struct
  let inner_dead = dead
  let inner_used = inner_dead
end
