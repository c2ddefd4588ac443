(* exported-unused fixture: a user that opens the module only locally. *)

let a =
  let open Unused_lib in
  used_let_open

let b = Unused_lib.(used_local_open)
