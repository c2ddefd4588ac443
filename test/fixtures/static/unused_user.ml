(* exported-unused fixture: a user outside tests. *)

module U = Unused_lib

let total = Unused_lib.used_qualified + U.used_aliased + Unused_lib.Inner.inner_used

open Unused_lib

let also = used_bare
