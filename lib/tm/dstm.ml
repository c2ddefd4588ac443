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
  if into.reads != txn.reads then into.reads <- txn.reads;
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
let deliver_abort t p =
  Tm_intf.release p t.owner;
  t.txns.(p) <- fresh_txn ();
  Event.Aborted

let doom t q =
  Tm_intf.release q t.owner;
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
let reads_valid t p = Tm_intf.values_hold t.committed t.txns.(p).reads

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

(* Whether p may use variable x now, settling a conflict with its owner
   through the contention manager. *)
let claim t p x =
  match t.owner.(x) with
  | Some q when q <> p -> resolve t p q
  | Some _ | None -> `Proceed

let read t p x =
  let txn = t.txns.(p) in
  let v =
    if Tm_intf.held_by p t.owner.(x) then t.tentative.(x)
    else t.committed.(x)
  in
  if not (Tm_intf.held_by p t.owner.(x)) then
    txn.reads <- (x, v) :: txn.reads;
  txn.ops_done <- txn.ops_done + 1;
  txn.waits <- 0;
  Tm_intf.value v

let write t p x v =
  let txn = t.txns.(p) in
  if not (Tm_intf.held_by p t.owner.(x)) then t.owner.(x) <- Some p;
  t.tentative.(x) <- v;
  txn.ops_done <- txn.ops_done + 1;
  txn.waits <- 0;
  Some Event.Ok_written

(* Commit is one atomic step: re-validate reads, then install tentative
   values. *)
let try_commit t p =
  if not (reads_valid t p) then Tm_intf.answer (deliver_abort t p)
  else begin
    for x = 0 to Array.length t.owner - 1 do
      if Tm_intf.held_by p t.owner.(x) then begin
        t.committed.(x) <- t.tentative.(x);
        t.owner.(x) <- None
      end
    done;
    t.txns.(p) <- fresh_txn ();
    Some Event.Committed
  end

let step t p inv =
  begin_if_needed t p;
  if t.txns.(p).doomed then Tm_intf.answer (deliver_abort t p)
  else if not (reads_valid t p) then Tm_intf.answer (deliver_abort t p)
  else
    match inv with
    | Event.Read x -> (
        match claim t p x with
        | `Proceed -> read t p x
        | `Wait -> None
        | `Abort_self -> Tm_intf.answer (deliver_abort t p))
    | Event.Write (x, v) -> (
        match claim t p x with
        | `Proceed -> write t p x v
        | `Wait -> None
        | `Abort_self -> Tm_intf.answer (deliver_abort t p))
    | Event.Try_commit -> try_commit t p

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
