type t = { stem : Event.t list; cycle : Event.t list }

(* The per-process pending-invocation state after a finite prefix; two
   prefixes with equal state accept exactly the same continuations. *)
let state_after es =
  let pending = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e with
      | Event.Inv (p, i) -> Hashtbl.replace pending p i
      | Event.Res (p, _) -> Hashtbl.remove pending p)
    es;
  Hashtbl.fold (fun p i acc -> (p, i) :: acc) pending []
  |> List.sort (fun (p, _) (q, _) -> Int.compare p q)

let check ~stem ~cycle =
  if cycle = [] then Error "lasso cycle must be non-empty"
  else
    let h1 = History.of_events (stem @ cycle) in
    let h2 = History.of_events (stem @ cycle @ cycle) in
    match History.well_formed h2 with
    | Error m -> Error ("lasso unrolling ill-formed: " ^ m)
    | Ok () ->
        if state_after (History.events h1) = state_after (History.events h2)
        then Ok { stem; cycle }
        else
          Error
            "pending-invocation state does not repeat after the cycle; the \
             infinite unrolling would be ill-formed"

let v ~stem ~cycle =
  match check ~stem ~cycle with
  | Ok l -> l
  | Error m -> invalid_arg ("Lasso.v: " ^ m)

let unroll l n =
  let rec cycles acc n = if n <= 0 then acc else cycles (acc @ l.cycle) (n - 1) in
  History.of_events (cycles l.stem n)

let rotate l =
  match l.cycle with
  | [] -> assert false
  | e :: rest -> { stem = l.stem @ [ e ]; cycle = rest @ [ e ] }

let unroll_cycle_into_stem l = { l with stem = l.stem @ l.cycle }

let procs l =
  List.sort_uniq Int.compare (List.map Event.proc (l.stem @ l.cycle))

let projection_infinite l p = List.exists (fun e -> Event.proc e = p) l.cycle

let infinitely_many l pred p =
  List.exists (fun e -> Event.proc e = p && pred e) l.cycle

let finite_count l pred p =
  List.length (List.filter (fun e -> Event.proc e = p && pred e) l.stem)
