open Tm_history

type txn = {
  mutable started : bool;
  mutable doomed : bool;
  mutable reads : (Event.tvar * Event.value) list;  (** value-based *)
  mutable ops_done : int;
  mutable waits : int;
  mutable timestamp : int;
}

type t = {
  cfg : Tm_intf.config;
  mail : Tm_intf.Mailbox.t;
  mutable time : int;  (** transaction birth dates for the CM *)
  committed : int array;  (** committed values *)
  tentative : int array;  (** owner's uncommitted value *)
  owner : Event.proc option array;
  txns : txn array;
  cm : Cm.t;
}

let fresh_txn () =
  {
    started = false;
    doomed = false;
    reads = [];
    ops_done = 0;
    waits = 0;
    timestamp = 0;
  }

let blit_txn txn ~into =
  into.started <- txn.started;
  into.doomed <- txn.doomed;
  into.reads <- txn.reads;
  into.ops_done <- txn.ops_done;
  into.waits <- txn.waits;
  into.timestamp <- txn.timestamp

let begin_if_needed t p =
  let txn = t.txns.(p) in
  if not txn.started then begin
    t.time <- t.time + 1;
    txn.started <- true;
    txn.doomed <- false;
    txn.reads <- [];
    txn.ops_done <- 0;
    txn.waits <- 0;
    txn.timestamp <- t.time
  end

(* Abort p's transaction: drop its ownerships (tentative values are simply
   forgotten; the committed values were never touched). *)
let release_ownerships t p =
  Array.iteri
    (fun x o -> if Tm_intf.held_by p o then t.owner.(x) <- None)
    t.owner

let deliver_abort t p =
  release_ownerships t p;
  t.txns.(p) <- fresh_txn ();
  Event.Aborted

let doom t q =
  release_ownerships t q;
  t.txns.(q).doomed <- true

let view_of t p =
  let txn = t.txns.(p) in
  {
    Cm.proc = p;
    ops_done = txn.ops_done;
    waits = txn.waits;
    timestamp = txn.timestamp;
  }

(* Value-based validation: every read must still see its value in the
   committed state. *)
let reads_valid t p =
  List.for_all (fun (x, v) -> t.committed.(x) = v) t.txns.(p).reads

(* Resolve a conflict between p and the owner q of variable x.
   Returns [`Proceed] if p may now use x, [`Wait], or [`Abort_self]. *)
let resolve t p q =
  let decision =
    t.cm.Cm.decide ~attacker:(view_of t p) ~victim:(view_of t q)
  in
  match decision with
  | Cm.Steal ->
      doom t q;
      `Proceed
  | Cm.Wait ->
      t.txns.(p).waits <- t.txns.(p).waits + 1;
      `Wait
  | Cm.Abort_self -> `Abort_self

let step t p inv =
  begin_if_needed t p;
  let txn = t.txns.(p) in
  if txn.doomed then Tm_intf.answer (deliver_abort t p)
  else if not (reads_valid t p) then Tm_intf.answer (deliver_abort t p)
  else
    let use_variable x k =
      match t.owner.(x) with
      | Some q when q <> p -> (
          match resolve t p q with
          | `Proceed -> k ()
          | `Wait -> None
          | `Abort_self -> Tm_intf.answer (deliver_abort t p))
      | Some _ | None -> k ()
    in
    match inv with
    | Event.Read x ->
        use_variable x (fun () ->
            let v =
              if Tm_intf.held_by p t.owner.(x) then t.tentative.(x)
              else t.committed.(x)
            in
            if not (Tm_intf.held_by p t.owner.(x)) then
              txn.reads <- (x, v) :: txn.reads;
            txn.ops_done <- txn.ops_done + 1;
            txn.waits <- 0;
            Tm_intf.answer (Event.Value v))
    | Event.Write (x, v) ->
        use_variable x (fun () ->
            if not (Tm_intf.held_by p t.owner.(x)) then t.owner.(x) <- Some p;
            t.tentative.(x) <- v;
            txn.ops_done <- txn.ops_done + 1;
            txn.waits <- 0;
            Some Event.Ok_written)
    | Event.Try_commit ->
        (* Commit is one atomic step: re-validate reads, then install
           tentative values. *)
        if not (reads_valid t p) then Tm_intf.answer (deliver_abort t p)
        else begin
          Array.iteri
            (fun x o ->
              if Tm_intf.held_by p o then begin
                t.committed.(x) <- t.tentative.(x);
                t.owner.(x) <- None
              end)
            t.owner;
          t.txns.(p) <- fresh_txn ();
          Some Event.Committed
        end

module Variant (C : sig
  val cm : Cm.t
end) =
Tm_intf.Make (struct
  type nonrec t = t

  let name = "dstm-" ^ C.cm.Cm.cm_name

  let describe =
    "DSTM-style obstruction-free TM with revocable ownership, contention \
     manager: " ^ C.cm.Cm.cm_name

  let create cfg =
    {
      cfg;
      mail = Tm_intf.Mailbox.create cfg;
      time = 0;
      committed = Array.make cfg.ntvars 0;
      tentative = Array.make cfg.ntvars 0;
      owner = Array.make cfg.ntvars None;
      txns = Array.init (cfg.nprocs + 1) (fun _ -> fresh_txn ());
      cm = C.cm;
    }

  let blit t ~into =
    Tm_intf.Mailbox.blit t.mail ~into:into.mail;
    into.time <- t.time;
    Tm_intf.blit_array t.committed ~into:into.committed;
    Tm_intf.blit_array t.tentative ~into:into.tentative;
    Tm_intf.blit_array t.owner ~into:into.owner;
    for p = 0 to Array.length t.txns - 1 do
      blit_txn t.txns.(p) ~into:into.txns.(p)
    done

  let cfg t = t.cfg
  let mail t = t.mail
  let step = step
end)

let make cm : (module Tm_intf.S) =
  (module struct
    type nonrec t = t

    include Variant (struct
      let cm = cm
    end)
  end)

(* Default variant: aggressive contention manager. *)
include Variant (struct
  let cm = Cm.aggressive
end)
