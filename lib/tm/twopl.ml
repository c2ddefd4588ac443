open Tm_history

type txn = {
  mutable started : bool;
  mutable doomed : bool;
  mutable timestamp : int;  (** birth date; larger = younger *)
  mutable writes : (Event.tvar * Event.value) list;  (** latest first *)
}

type t = {
  cfg : Tm_intf.config;
  mail : Tm_intf.Mailbox.t;
  mutable time : int;
  value : int array;
  readers : bool array array;  (** readers.(x).(p) *)
  writer : Event.proc option array;
  txns : txn array;
}

let fresh_txn () = { started = false; doomed = false; timestamp = 0; writes = [] }

let blit_txn txn ~into =
  into.started <- txn.started;
  into.doomed <- txn.doomed;
  into.timestamp <- txn.timestamp;
  into.writes <- txn.writes

let begin_if_needed t p =
  let txn = t.txns.(p) in
  if not txn.started then begin
    t.time <- t.time + 1;
    txn.started <- true;
    txn.doomed <- false;
    txn.timestamp <- t.time;
    txn.writes <- []
  end

let release_locks t p =
  Array.iter (fun row -> row.(p) <- false) t.readers;
  Array.iteri
    (fun x w -> if Tm_intf.held_by p w then t.writer.(x) <- None)
    t.writer

let deliver_abort t p =
  release_locks t p;
  t.txns.(p) <- fresh_txn ();
  Event.Aborted

(* The processes whose locks prevent p's pending operation (its mailbox
   slot) from proceeding. *)
let blockers t p =
  match t.mail.(p) with
  | None | Some Event.Try_commit -> []
  | Some (Event.Read x) -> (
      match t.writer.(x) with Some q when q <> p -> [ q ] | _ -> [])
  | Some (Event.Write (x, _)) ->
      let ws = match t.writer.(x) with Some q when q <> p -> [ q ] | _ -> [] in
      let rs =
        List.filter
          (fun q -> q <> p && t.readers.(x).(q))
          (List.init t.cfg.nprocs (fun i -> i + 1))
      in
      ws @ rs

(* Detect a waits-for cycle through p; if found, doom the youngest
   transaction on it.  Blocked processes wait for lock holders; a holder
   that is itself blocked extends the chain. *)
let break_deadlock t p =
  let rec chase visited q =
    if List.mem q visited then Some (q :: visited)
    else
      match blockers t q with
      | [] -> None
      | qs ->
          (* Follow each blocker; the graph is small, DFS suffices. *)
          List.fold_left
            (fun acc q' ->
              match acc with Some _ -> acc | None -> chase (q :: visited) q')
            None qs
  in
  match chase [] p with
  | None -> ()
  | Some cycle ->
      let youngest =
        List.fold_left
          (fun best q ->
            if t.txns.(q).timestamp > t.txns.(best).timestamp then q else best)
          p cycle
      in
      t.txns.(youngest).doomed <- true

include Tm_intf.Make (struct
  type nonrec t = t

  let name = "twopl"

  let describe =
    "strict two-phase locking with waits-for deadlock detection (solo \
     progress only in crash-free and parasitic-free systems; blocking)"

  let create cfg =
    {
      cfg;
      mail = Tm_intf.Mailbox.create cfg;
      time = 0;
      value = Array.make cfg.ntvars 0;
      readers =
        Array.init cfg.ntvars (fun _ -> Array.make (cfg.nprocs + 1) false);
      writer = Array.make cfg.ntvars None;
      txns = Array.init (cfg.nprocs + 1) (fun _ -> fresh_txn ());
    }

  let blit t ~into =
    Tm_intf.Mailbox.blit t.mail ~into:into.mail;
    into.time <- t.time;
    Tm_intf.blit_array t.value ~into:into.value;
    for x = 0 to Array.length t.readers - 1 do
      Tm_intf.blit_array t.readers.(x) ~into:into.readers.(x)
    done;
    Tm_intf.blit_array t.writer ~into:into.writer;
    for p = 0 to Array.length t.txns - 1 do
      blit_txn t.txns.(p) ~into:into.txns.(p)
    done

  let cfg t = t.cfg
  let mail t = t.mail

  let step t p inv =
    begin_if_needed t p;
    let txn = t.txns.(p) in
    if txn.doomed then Tm_intf.answer (deliver_abort t p)
    else (
      match inv with
      | Event.Read x -> (
          match t.writer.(x) with
          | Some q when q <> p ->
              break_deadlock t p;
              None
          | Some _ | None ->
              t.readers.(x).(p) <- true;
              let v =
                match List.assoc_opt x txn.writes with
                | Some v -> v
                | None -> t.value.(x)
              in
              Tm_intf.answer (Event.Value v))
      | Event.Write (x, v) ->
          if blockers t p <> [] then begin
            break_deadlock t p;
            None
          end
          else begin
            t.writer.(x) <- Some p;
            t.readers.(x).(p) <- false;
            txn.writes <- (x, v) :: txn.writes;
            Some Event.Ok_written
          end
      | Event.Try_commit ->
          (* Strictness: writes apply under the exclusive locks, which
             are only now released. *)
          let vars =
            List.sort_uniq Int.compare (List.map fst txn.writes)
          in
          List.iter
            (fun x -> t.value.(x) <- List.assoc x txn.writes)
            vars;
          release_locks t p;
          t.txns.(p) <- fresh_txn ();
          Some Event.Committed)
end)
