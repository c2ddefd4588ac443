(* exported-unused fixture: a test, whose uses make an export info. *)

let () = assert (Unused_lib.test_only = 1)
