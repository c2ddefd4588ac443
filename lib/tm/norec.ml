open Tm_history

type commit_phase =
  | Idle
  | Writing_back of (Event.tvar * Event.value) list

type txn = {
  mutable started : bool;
  mutable snapshot : int;
  mutable reads : (Event.tvar * Event.value) list;
  mutable writes : (Event.tvar * Event.value) list;  (** latest first *)
  mutable phase : commit_phase;
}

type t = {
  cfg : Tm_intf.config;
  mail : Tm_intf.Mailbox.t;
  mutable counter : int;  (** bumped by every writer commit *)
  mutable writer : Event.proc option;  (** holder of the commit lock *)
  value : int array;
  txns : txn array;
}

let fresh_txn () =
  { started = false; snapshot = 0; reads = []; writes = []; phase = Idle }

let blit_txn txn ~into =
  into.started <- txn.started;
  into.snapshot <- txn.snapshot;
  into.reads <- txn.reads;
  into.writes <- txn.writes;
  into.phase <- txn.phase

let begin_if_needed t p =
  let txn = t.txns.(p) in
  if not txn.started then begin
    txn.started <- true;
    txn.snapshot <- t.counter;
    txn.reads <- [];
    txn.writes <- [];
    txn.phase <- Idle
  end

let abort t p =
  if Tm_intf.held_by p t.writer then t.writer <- None;
  t.txns.(p) <- fresh_txn ();
  Event.Aborted

(* Re-validate the read set by value; on success adopt the current
   snapshot. *)
let revalidate t p =
  let txn = t.txns.(p) in
  if Tm_intf.values_hold t.value txn.reads then begin
    txn.snapshot <- t.counter;
    true
  end
  else false

include Tm_intf.Make (struct
  type nonrec t = t

  let name = "norec"

  let describe =
    "NOrec-style: single commit lock, value-based validation (solo progress \
     in crash-free systems)"

  let create cfg =
    {
      cfg;
      mail = Tm_intf.Mailbox.create cfg;
      counter = 0;
      writer = None;
      value = Array.make cfg.ntvars 0;
      txns = Array.init (cfg.nprocs + 1) (fun _ -> fresh_txn ());
    }

  let blit t ~into =
    Tm_intf.Mailbox.blit t.mail ~into:into.mail;
    into.counter <- t.counter;
    into.writer <- t.writer;
    Tm_intf.blit_array t.value ~into:into.value;
    for p = 0 to Array.length t.txns - 1 do
      blit_txn t.txns.(p) ~into:into.txns.(p)
    done

  let cfg t = t.cfg
  let mail t = t.mail

  let step t p inv =
    begin_if_needed t p;
    let txn = t.txns.(p) in
    match inv with
    | Event.Read x -> (
        match List.assoc_opt x txn.writes with
        | Some v -> Tm_intf.value v
        | None ->
            (* Wait out an in-flight writer: its write-back is not an
               atomic snapshot. *)
            if Option.is_some t.writer && not (Tm_intf.held_by p t.writer)
            then None
            else if txn.snapshot <> t.counter && not (revalidate t p) then
              Tm_intf.answer (abort t p)
            else begin
              let v = t.value.(x) in
              txn.reads <- (x, v) :: txn.reads;
              Tm_intf.value v
            end)
    | Event.Write (x, v) ->
        txn.writes <- (x, v) :: txn.writes;
        Some Event.Ok_written
    | Event.Try_commit -> (
        match txn.phase with
        | Idle ->
            if txn.writes = [] then
              (* Read-only: the read set was coherent at the last
                 (re)validation and no writer has intervened since the
                 snapshot was adopted. *)
              if txn.snapshot = t.counter || revalidate t p then begin
                t.txns.(p) <- fresh_txn ();
                Some Event.Committed
              end
              else Tm_intf.answer (abort t p)
            else if t.writer <> None then None
            else begin
              t.writer <- Some p;
              if not (revalidate t p) then Tm_intf.answer (abort t p)
              else begin
                txn.phase <- Writing_back (Tm_intf.write_set txn.writes);
                None
              end
            end
        | Writing_back [] ->
            t.counter <- t.counter + 1;
            t.writer <- None;
            t.txns.(p) <- fresh_txn ();
            Some Event.Committed
        | Writing_back ((x, v) :: rest) ->
            t.value.(x) <- v;
            txn.phase <- Writing_back rest;
            None)
end)
