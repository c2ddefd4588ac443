type status = Committed | Aborted | Live

type op =
  | O_read of Event.tvar * Event.value
  | O_write of Event.tvar * Event.value

type t = {
  proc : Event.proc;
  seq : int;
  first_pos : int;
  last_pos : int;
  events : Event.t list;
  ops : op list;
  status : status;
  attempted_commit : bool;
}

(* Extract the completed operations from a transaction's event list by
   pairing each invocation with the response that follows it. *)
let ops_of_events events =
  let rec go acc = function
    | [] -> List.rev acc
    | Event.Inv (_, Event.Read x) :: Event.Res (_, Event.Value v) :: rest ->
        go (O_read (x, v) :: acc) rest
    | Event.Inv (_, Event.Write (x, v)) :: Event.Res (_, Event.Ok_written)
      :: rest ->
        go (O_write (x, v) :: acc) rest
    | _ :: rest -> go acc rest
  in
  go [] events

let status_of_events events =
  match List.rev events with
  | Event.Res (_, Event.Committed) :: _ -> Committed
  | Event.Res (_, Event.Aborted) :: _ -> Aborted
  | _ -> Live

let attempted events = List.exists Event.is_try_commit events

(* Split the indexed projection of one process into transactions.  Each
   element of the input is [(global_pos, event)]. *)
let split_transactions proc indexed =
  let finish seq acc_rev =
    match acc_rev with
    | [] -> None
    | (last_pos, _) :: _ ->
        let evs = List.rev acc_rev in
        let events = List.map snd evs in
        let first_pos =
          match evs with (i, _) :: _ -> i | [] -> assert false
        in
        Some
          {
            proc;
            seq;
            first_pos;
            last_pos;
            events;
            ops = ops_of_events events;
            status = status_of_events events;
            attempted_commit = attempted events;
          }
  in
  let rec go seq acc_rev out = function
    | [] -> (
        match finish seq acc_rev with
        | None -> List.rev out
        | Some txn -> List.rev (txn :: out))
    | ((_, e) as ie) :: rest ->
        if Event.is_commit e || Event.is_abort e then
          match finish seq (ie :: acc_rev) with
          | None -> go seq [] out rest
          | Some txn -> go (seq + 1) [] (txn :: out) rest
        else go seq (ie :: acc_rev) out rest
  in
  go 0 [] [] indexed

let of_process h proc =
  let indexed =
    History.events h
    |> List.mapi (fun i e -> (i, e))
    |> List.filter (fun (_, e) -> Event.proc e = proc)
  in
  split_transactions proc indexed

let of_history h =
  let all = List.concat_map (of_process h) (History.procs h) in
  List.sort (fun a b -> Int.compare a.first_pos b.first_pos) all

let is_committed t = t.status = Committed
let is_aborted t = t.status = Aborted

let commit_pending t =
  t.status = Live
  &&
  match List.rev t.events with
  | Event.Inv (_, Event.Try_commit) :: _ -> true
  | _ -> false

let completed_as status t = { t with status; last_pos = max_int }

let precedes t1 t2 =
  (match t1.status with Committed | Aborted -> true | Live -> false)
  && t1.last_pos < t2.first_pos

let concurrent t1 t2 = (not (precedes t1 t2)) && not (precedes t2 t1)

let reads t =
  List.filter_map
    (function O_read (x, v) -> Some (x, v) | O_write _ -> None)
    t.ops

let writes t =
  List.filter_map
    (function O_write (x, v) -> Some (x, v) | O_read _ -> None)
    t.ops

let write_set t = List.sort_uniq Int.compare (List.map fst (writes t))

let last_write t x =
  List.fold_left
    (fun acc -> function
      | O_write (y, v) when y = x -> Some v
      | O_write _ | O_read _ -> acc)
    None t.ops

let label t = Fmt.str "T%d.%d" t.proc t.seq
