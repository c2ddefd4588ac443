open Tm_history

module M = Map.Make (Int)

type t = Event.value M.t

let initial = M.empty

let get s x = match M.find_opt x s with Some v -> v | None -> 0

let set s x v = if v = 0 then M.remove x s else M.add x v s

let apply_writes s ws = List.fold_left (fun s (x, v) -> set s x v) s ws

let bindings = M.bindings

let equal = M.equal Int.equal
