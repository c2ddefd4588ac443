open Tm_history

type txn = {
  mutable live : bool;
  mutable reads : (Event.tvar * Event.value) list;
  mutable writes : (Event.tvar * Event.value) list;  (** latest first *)
}

type t = {
  cfg : Tm_intf.config;
  mail : Tm_intf.Mailbox.t;
  store : int array;
  txns : txn array;
}

let fresh_txn () = { live = false; reads = []; writes = [] }

(* Whether a process from [q] on, other than [p], has a live
   transaction. *)
let rec live_from t p q =
  q < Array.length t.txns
  && ((q <> p && t.txns.(q).live) || live_from t p (q + 1))

let others_live t p = live_from t p 1

(* Apply writes oldest first, so a variable's latest write lands last. *)
let rec apply store = function
  | [] -> ()
  | (x, v) :: older ->
      apply store older;
      store.(x) <- v

include Tm_intf.Make (struct
  type nonrec t = t

  let name = "quiescent"

  let describe =
    "over-conservative strawman: writers commit only when no other \
     transaction is live (opaque and responsive, but one open transaction \
     starves all writers - realizes Figures 9 and 12)"

  let create cfg =
    {
      cfg;
      mail = Tm_intf.Mailbox.create cfg;
      store = Array.make cfg.ntvars 0;
      txns = Array.init (cfg.nprocs + 1) (fun _ -> fresh_txn ());
    }

  let blit t ~into =
    Tm_intf.Mailbox.blit t.mail ~into:into.mail;
    Tm_intf.blit_array t.store ~into:into.store;
    for p = 0 to Array.length t.txns - 1 do
      let txn = t.txns.(p) and txn' = into.txns.(p) in
      txn'.live <- txn.live;
      if txn'.reads != txn.reads then txn'.reads <- txn.reads;
      if txn'.writes != txn.writes then txn'.writes <- txn.writes
    done

  let cfg t = t.cfg
  let mail t = t.mail

  let step t p inv =
    let txn = t.txns.(p) in
    txn.live <- true;
    match inv with
    | Event.Read x -> (
        match Tm_intf.own_value x txn.writes with
        | Some _ as r -> r
        | None ->
            (* Reads return the committed value; since writers commit
               only in quiescence, the whole read set is automatically
               a consistent snapshot as long as this transaction lives
               (nobody can commit while it does). *)
            let v = t.store.(x) in
            txn.reads <- (x, v) :: txn.reads;
            Tm_intf.value v)
    | Event.Write (x, v) ->
        txn.writes <- (x, v) :: txn.writes;
        Tm_intf.answer Event.Ok_written
    | Event.Try_commit ->
        Tm_intf.answer
          (if txn.writes = [] then begin
             t.txns.(p) <- fresh_txn ();
             Event.Committed
           end
           else if others_live t p then begin
             t.txns.(p) <- fresh_txn ();
             Event.Aborted
           end
           else begin
             apply t.store txn.writes;
             t.txns.(p) <- fresh_txn ();
             Event.Committed
           end)
end)
