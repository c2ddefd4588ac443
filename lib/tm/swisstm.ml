open Tm_history

type txn = {
  mutable started : bool;
  mutable rv : int;
  mutable reads : (Event.tvar * int) list;  (** var, version when read *)
  mutable writes : (Event.tvar * Event.value) list;  (** latest first *)
  mutable ops_done : int;
  mutable waits : int;
  mutable doomed : bool;
}

type t = {
  cfg : Tm_intf.config;
  mail : Tm_intf.Mailbox.t;
  mutable clock : int;
  value : int array;
  version : int array;
  wlock : Event.proc option array;  (** eager write locks *)
  txns : txn array;
}

(* The two-phase contention threshold: transactions that completed fewer
   operations than this abort themselves on a write-write conflict; bigger
   ones wait and then doom the holder. *)
let cm_threshold = 3
let cm_patience = 4

let fresh_txn () =
  {
    started = false;
    rv = 0;
    reads = [];
    writes = [];
    ops_done = 0;
    waits = 0;
    doomed = false;
  }

let blit_txn txn ~into =
  into.started <- txn.started;
  into.rv <- txn.rv;
  into.reads <- txn.reads;
  into.writes <- txn.writes;
  into.ops_done <- txn.ops_done;
  into.waits <- txn.waits;
  into.doomed <- txn.doomed

let begin_if_needed t p =
  let txn = t.txns.(p) in
  if not txn.started then begin
    txn.started <- true;
    txn.rv <- t.clock
  end

let deliver_abort t p =
  Tm_intf.release p t.wlock;
  t.txns.(p) <- fresh_txn ();
  Event.Aborted

let doom t q =
  Tm_intf.release q t.wlock;
  t.txns.(q).doomed <- true

(* Whether every read still sits at the version it read, and no later
   than [rv]. *)
let rec reads_valid t rv = function
  | [] -> true
  | (x, ver) :: rest ->
      t.version.(x) = ver && t.version.(x) <= rv && reads_valid t rv rest

(* Install a write set at version [wv]. *)
let rec install t wv = function
  | [] -> ()
  | (x, v) :: rest ->
      t.value.(x) <- v;
      t.version.(x) <- wv;
      install t wv rest

include Tm_intf.Make (struct
  type nonrec t = t

  let name = "swisstm"

  let describe =
    "SwissTM-style: eager write locking, lazy updates, two-phase contention \
     management (solo progress only in crash-free and parasitic-free \
     systems)"

  let create cfg =
    {
      cfg;
      mail = Tm_intf.Mailbox.create cfg;
      clock = 0;
      value = Array.make cfg.ntvars 0;
      version = Array.make cfg.ntvars 0;
      wlock = Array.make cfg.ntvars None;
      txns = Array.init (cfg.nprocs + 1) (fun _ -> fresh_txn ());
    }

  let blit t ~into =
    Tm_intf.Mailbox.blit t.mail ~into:into.mail;
    into.clock <- t.clock;
    Tm_intf.blit_array t.value ~into:into.value;
    Tm_intf.blit_array t.version ~into:into.version;
    Tm_intf.blit_array t.wlock ~into:into.wlock;
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
          (* Lazy updates: the committed value is always in place, so a
             write lock does not block readers. *)
          match List.assoc_opt x txn.writes with
          | Some v ->
              txn.ops_done <- txn.ops_done + 1;
              Tm_intf.value v
          | None ->
              if t.version.(x) > txn.rv then Tm_intf.answer (deliver_abort t p)
              else begin
                txn.reads <- (x, t.version.(x)) :: txn.reads;
                txn.ops_done <- txn.ops_done + 1;
                Tm_intf.value t.value.(x)
              end)
      | Event.Write (x, v) -> (
          match t.wlock.(x) with
          | Some q when q <> p ->
              (* Two-phase contention management. *)
              if txn.ops_done < cm_threshold then
                Tm_intf.answer (deliver_abort t p)
              else if txn.waits < cm_patience then begin
                txn.waits <- txn.waits + 1;
                None
              end
              else begin
                doom t q;
                t.wlock.(x) <- Some p;
                txn.writes <- (x, v) :: txn.writes;
                txn.ops_done <- txn.ops_done + 1;
                txn.waits <- 0;
                Some Event.Ok_written
              end
          | Some _ | None ->
              t.wlock.(x) <- Some p;
              txn.writes <- (x, v) :: txn.writes;
              txn.ops_done <- txn.ops_done + 1;
              txn.waits <- 0;
              Some Event.Ok_written)
      | Event.Try_commit ->
          (* Commit is one atomic step: a multi-poll write-back would let
             a reader whose snapshot is the new clock value observe half
             of the commit.  SwissTM's fault character lives in its
             eager encounter-time write locks, which is unaffected. *)
          if not (reads_valid t txn.rv txn.reads) then
            Tm_intf.answer (deliver_abort t p)
          else begin
            (if txn.writes <> [] then begin
               t.clock <- t.clock + 1;
               install t t.clock (Tm_intf.write_set txn.writes)
             end);
            Tm_intf.release p t.wlock;
            t.txns.(p) <- fresh_txn ();
            Some Event.Committed
          end)
end)
