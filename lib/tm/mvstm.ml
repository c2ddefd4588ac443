open Tm_history

type commit_phase =
  | Idle
  | Acquiring of (Event.tvar * Event.value) list
      (** write-set entries still to lock *)

type txn = {
  mutable started : bool;
  mutable rv : int;
  mutable reads : (Event.tvar * int) list;  (** var, version that was read *)
  mutable writes : (Event.tvar * Event.value) list;  (** latest first *)
  mutable phase : commit_phase;
}

type t = {
  cfg : Tm_intf.config;
  mail : Tm_intf.Mailbox.t;
  mutable clock : int;
  versions : (int * Event.value) list array;
      (** per t-variable, newest first; always non-empty (starts at (0,0)) *)
  lock : Event.proc option array;
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

(* Newest version no newer than the snapshot, of a t-variable's
   versions: always exists because version 0 of everything is the
   initial value. *)
let rec read_at (rv : int) = function
  | [] -> assert false
  | ((ver, _) as version) :: rest ->
      if ver <= rv then version else read_at rv rest

let latest_version t x =
  match t.versions.(x) with (ver, _) :: _ -> ver | [] -> assert false

let locked_by_other t p x =
  match t.lock.(x) with Some q -> q <> p | None -> false

let abort t p =
  Tm_intf.release p t.lock;
  t.txns.(p) <- fresh_txn ();
  Event.Aborted

(* Whether every read is still of its t-variable's latest version. *)
let rec still_latest t = function
  | [] -> true
  | (x, ver) :: rest -> latest_version t x = ver && still_latest t rest

(* Install a write set as version [wv]. *)
let rec install t wv = function
  | [] -> ()
  | (x, v) :: rest ->
      t.versions.(x) <- (wv, v) :: t.versions.(x);
      install t wv rest

let commit_step t p =
  let txn = t.txns.(p) in
  match txn.phase with
  | Idle -> (
      match Tm_intf.write_set txn.writes with
      | [] ->
          (* Read-only: the snapshot is consistent by construction. *)
          t.txns.(p) <- fresh_txn ();
          Some Event.Committed
      | ws ->
          txn.phase <- Acquiring ws;
          None)
  | Acquiring [] ->
      (* First-committer-wins: every read must still be of the latest
         version, else a concurrent commit invalidated the snapshot the
         writes were computed from.  Installation is a single atomic step:
         a multi-step install would let a reader whose snapshot is the new
         clock value observe half of this commit. *)
      if not (still_latest t txn.reads) then Tm_intf.answer (abort t p)
      else begin
        t.clock <- t.clock + 1;
        install t t.clock (Tm_intf.write_set txn.writes);
        Tm_intf.release p t.lock;
        t.txns.(p) <- fresh_txn ();
        Some Event.Committed
      end
  | Acquiring ((x, _) :: rest) ->
      if locked_by_other t p x then Tm_intf.answer (abort t p)
      else begin
        t.lock.(x) <- Some p;
        txn.phase <- Acquiring rest;
        None
      end

include Tm_intf.Make (struct
  type nonrec t = t

  let name = "mvstm"

  let describe =
    "multiversion: reads never abort (snapshot at transaction start), \
     first-committer-wins validation for writers"

  let create cfg =
    {
      cfg;
      mail = Tm_intf.Mailbox.create cfg;
      clock = 0;
      versions = Array.make cfg.ntvars [ (0, 0) ];
      lock = Array.make cfg.ntvars None;
      txns = Array.init (cfg.nprocs + 1) (fun _ -> fresh_txn ());
    }

  let blit t ~into =
    Tm_intf.Mailbox.blit t.mail ~into:into.mail;
    into.clock <- t.clock;
    Tm_intf.blit_array t.versions ~into:into.versions;
    Tm_intf.blit_array t.lock ~into:into.lock;
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
            let ver, v = read_at txn.rv t.versions.(x) in
            txn.reads <- (x, ver) :: txn.reads;
            Tm_intf.value v)
    | Event.Write (x, v) ->
        txn.writes <- (x, v) :: txn.writes;
        Some Event.Ok_written
    | Event.Try_commit -> commit_step t p
end)
