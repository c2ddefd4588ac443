type node = Nil | Node of int * node Stm.tvar

type t = node Stm.tvar  (** head *)

let make () = Stm.tvar Nil

(* Find the first node with key >= k; returns the t-variable pointing to
   it (for in-place splicing). *)
let rec locate ptr k =
  match Stm.read ptr with
  | Nil -> ptr
  | Node (key, next) -> if key >= k then ptr else locate next k

let add t k =
  Stm.atomically (fun () ->
      let ptr = locate t k in
      match Stm.read ptr with
      | Node (key, _) when key = k -> false
      | (Nil | Node _) as rest ->
          Stm.write ptr (Node (k, Stm.tvar rest));
          true)

let remove t k =
  Stm.atomically (fun () ->
      let ptr = locate t k in
      match Stm.read ptr with
      | Node (key, next) when key = k ->
          Stm.write ptr (Stm.read next);
          true
      | Nil | Node _ -> false)

let mem t k =
  Stm.atomically (fun () ->
      let ptr = locate t k in
      match Stm.read ptr with
      | Node (key, _) -> key = k
      | Nil -> false)

let to_list t =
  Stm.atomically (fun () ->
      let rec go acc ptr =
        match Stm.read ptr with
        | Nil -> List.rev acc
        | Node (k, next) -> go (k :: acc) next
      in
      go [] t)
