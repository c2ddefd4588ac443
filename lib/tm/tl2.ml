open Tm_history

type commit_phase =
  | Idle
  | Acquiring of (Event.tvar * Event.value) list
      (** write-set entries still to lock *)
  | Validating of int * (Event.tvar * int) list
      (** write version, read-set entries still to validate *)
  | Writing_back of int * (Event.tvar * Event.value) list

type txn = {
  mutable started : bool;
  mutable rv : int;  (** read version: clock at transaction start *)
  mutable reads : (Event.tvar * int) list;  (** var, version when read *)
  mutable writes : (Event.tvar * Event.value) list;  (** latest first *)
  mutable phase : commit_phase;
}

type t = {
  cfg : Tm_intf.config;
  mail : Tm_intf.Mailbox.t;
  mutable clock : int;
  value : int array;
  version : int array;
  lock : Event.proc option array;  (** commit-time write locks *)
  txns : txn array;
}

let fresh_txn () =
  { started = false; rv = 0; reads = []; writes = []; phase = Idle }

let blit_txn txn ~into =
  into.started <- txn.started;
  into.rv <- txn.rv;
  into.reads <- txn.reads;
  into.writes <- txn.writes;
  into.phase <- txn.phase

let begin_if_needed t p =
  let txn = t.txns.(p) in
  if not txn.started then begin
    txn.started <- true;
    txn.rv <- t.clock;
    txn.reads <- [];
    txn.writes <- [];
    txn.phase <- Idle
  end

let locked_by_other t p x =
  match t.lock.(x) with Some q -> q <> p | None -> false

let abort t p =
  Tm_intf.release p t.lock;
  t.txns.(p) <- fresh_txn ();
  Event.Aborted

let commit t p =
  t.txns.(p) <- fresh_txn ();
  Event.Committed

let read_value t p x =
  let txn = t.txns.(p) in
  match List.assoc_opt x txn.writes with
  | Some v -> Tm_intf.value v
  | None ->
      if locked_by_other t p x || t.version.(x) > txn.rv then None
      else begin
        txn.reads <- (x, t.version.(x)) :: txn.reads;
        Tm_intf.value t.value.(x)
      end

(* One micro-step of the commit state machine. *)
let commit_step t p =
  let txn = t.txns.(p) in
  match txn.phase with
  | Idle -> (
      match Tm_intf.write_set txn.writes with
      | [] ->
          (* Read-only transactions need no locks and no re-validation:
             every read was validated against rv when it happened. *)
          Tm_intf.answer (commit t p)
      | ws ->
          txn.phase <- Acquiring ws;
          None)
  | Acquiring [] ->
      t.clock <- t.clock + 1;
      txn.phase <- Validating (t.clock, txn.reads);
      None
  | Acquiring ((x, _) :: rest) ->
      if locked_by_other t p x then Tm_intf.answer (abort t p)
      else begin
        t.lock.(x) <- Some p;
        txn.phase <- Acquiring rest;
        None
      end
  | Validating (wv, []) ->
      txn.phase <- Writing_back (wv, Tm_intf.write_set txn.writes);
      None
  | Validating (wv, (x, _ver) :: rest) ->
      if locked_by_other t p x || t.version.(x) > txn.rv then
        Tm_intf.answer (abort t p)
      else begin
        txn.phase <- Validating (wv, rest);
        None
      end
  | Writing_back (_, []) ->
      Tm_intf.release p t.lock;
      Tm_intf.answer (commit t p)
  | Writing_back (wv, (x, v) :: rest) ->
      t.value.(x) <- v;
      t.version.(x) <- wv;
      t.lock.(x) <- None;
      txn.phase <- Writing_back (wv, rest);
      None

include Tm_intf.Make (struct
  type nonrec t = t

  let name = "tl2"

  let describe =
    "TL2-style: deferred updates, commit-time locking, global version clock \
     (solo progress in crash-free systems)"

  let create cfg =
    {
      cfg;
      mail = Tm_intf.Mailbox.create cfg;
      clock = 0;
      value = Array.make cfg.ntvars 0;
      version = Array.make cfg.ntvars 0;
      lock = Array.make cfg.ntvars None;
      txns = Array.init (cfg.nprocs + 1) (fun _ -> fresh_txn ());
    }

  let blit t ~into =
    Tm_intf.Mailbox.blit t.mail ~into:into.mail;
    into.clock <- t.clock;
    Tm_intf.blit_array t.value ~into:into.value;
    Tm_intf.blit_array t.version ~into:into.version;
    Tm_intf.blit_array t.lock ~into:into.lock;
    for p = 0 to Array.length t.txns - 1 do
      blit_txn t.txns.(p) ~into:into.txns.(p)
    done

  let cfg t = t.cfg
  let mail t = t.mail

  let step t p inv =
    begin_if_needed t p;
    match inv with
    | Event.Read x -> (
        match read_value t p x with
        | Some _ as r -> r
        | None -> Tm_intf.answer (abort t p))
    | Event.Write (x, v) ->
        let txn = t.txns.(p) in
        txn.writes <- (x, v) :: txn.writes;
        Some Event.Ok_written
    | Event.Try_commit -> commit_step t p
end)
