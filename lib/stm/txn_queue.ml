type 'a t = { front : 'a list Stm.tvar; back : 'a list Stm.tvar }

let make () = { front = Stm.tvar []; back = Stm.tvar [] }

let push q x = Stm.atomically (fun () -> Stm.write q.back (x :: Stm.read q.back))

let pop q =
  Stm.atomically (fun () ->
      match Stm.read q.front with
      | x :: rest ->
          Stm.write q.front rest;
          Some x
      | [] -> (
          match List.rev (Stm.read q.back) with
          | [] -> None
          | x :: rest ->
              Stm.write q.back [];
              Stm.write q.front rest;
              Some x))

let length q =
  Stm.atomically (fun () ->
      List.length (Stm.read q.front) + List.length (Stm.read q.back))

let to_list q =
  Stm.atomically (fun () -> Stm.read q.front @ List.rev (Stm.read q.back))
