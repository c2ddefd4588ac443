module IMap = Map.Make (Int)

type t = int IMap.t

let zero = IMap.empty

let get c tid = match IMap.find_opt tid c with Some v -> v | None -> 0

let tick c tid = IMap.add tid (get c tid + 1) c

let join a b =
  IMap.union (fun _ va vb -> Some (if va >= vb then va else vb)) a b

(* [a <= b] pointwise: every component of [a] is covered by [b].  Absent
   components are 0, so only [a]'s bindings need checking. *)
let leq a b = IMap.for_all (fun tid v -> v <= get b tid) a

let concurrent a b = (not (leq a b)) && not (leq b a)

let equal a b = leq a b && leq b a
