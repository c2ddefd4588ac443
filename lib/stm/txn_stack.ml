type 'a t = 'a list Stm.tvar

let make () = Stm.tvar []

let push s x = Stm.atomically (fun () -> Stm.write s (x :: Stm.read s))

let pop s =
  Stm.atomically (fun () ->
      match Stm.read s with
      | [] -> None
      | x :: rest ->
          Stm.write s rest;
          Some x)

let peek s =
  Stm.atomically (fun () ->
      match Stm.read s with [] -> None | x :: _ -> Some x)

let length s = List.length (Stm.read s)
let to_list s = Stm.read s
