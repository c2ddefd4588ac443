(* Fixture: a miniature Stm facade with one announced algorithm and a
   retry loop reaching the facade's own sites. *)

module Algo = struct
  type t = Mini

  let sites = function
    | Mini -> [ Obs.Read; Obs.Lock; Obs.Conflict Obs.Validation ]
end

let core_of = function Algo.Mini -> (module Stm_mini)

let atomically f =
  if Atomic.get Obs.armed then Obs.note Obs.Begin 0 0;
  let r = f () in
  if Atomic.get Obs.armed then Obs.note Obs.Commit 0 0;
  r
