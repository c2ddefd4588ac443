open Tm_history

type txn = {
  mutable started : bool;
  mutable rv : int;
  mutable reads : (Event.tvar * int) list;
  mutable undo : (Event.tvar * Event.value * int) list;
      (** var, previous value, previous version — newest first *)
}

type t = {
  cfg : Tm_intf.config;
  mail : Tm_intf.Mailbox.t;
  mutable clock : int;
  value : int array;
  version : int array;
  lock : Event.proc option array;  (** encounter-time write locks *)
  txns : txn array;
  extension : bool;  (** timestamp extension on snapshot misses *)
}

let fresh_txn () = { started = false; rv = 0; reads = []; undo = [] }

let blit_txn txn ~into =
  into.started <- txn.started;
  into.rv <- txn.rv;
  into.reads <- txn.reads;
  into.undo <- txn.undo

let begin_if_needed t p =
  let txn = t.txns.(p) in
  if not txn.started then begin
    txn.started <- true;
    txn.rv <- t.clock;
    txn.reads <- [];
    txn.undo <- []
  end

let locked_by_other t p x =
  match t.lock.(x) with Some q -> q <> p | None -> false

let owns t p x = Tm_intf.held_by p t.lock.(x)

(* Roll back in-place writes, oldest first, so the newest entry is
   restored last (each variable restored to its pre-transaction state
   the last time it appears). *)
let rec undo t = function
  | [] -> ()
  | (x, v, ver) :: older ->
      undo t older;
      t.value.(x) <- v;
      t.version.(x) <- ver

let abort t p =
  undo t t.txns.(p).undo;
  Tm_intf.release p t.lock;
  t.txns.(p) <- fresh_txn ();
  Event.Aborted

(* Timestamp extension: if every recorded read still sits at the version
   it was read at (and is not locked by someone else), the snapshot can be
   moved forward to the current clock. *)
let rec unchanged t p = function
  | [] -> true
  | (x, ver) :: rest ->
      t.version.(x) = ver && (not (locked_by_other t p x)) && unchanged t p rest

let try_extend t p =
  let txn = t.txns.(p) in
  t.extension && unchanged t p txn.reads
  && begin
       txn.rv <- t.clock;
       true
     end

(* Each read must still sit at the exact version it was read at (own
   locks are fine: the version was checked when the lock was taken). *)
let rec reads_valid t p = function
  | [] -> true
  | (x, ver) :: rest ->
      (owns t p x || ((not (locked_by_other t p x)) && t.version.(x) = ver))
      && reads_valid t p rest

let step t p inv =
  begin_if_needed t p;
  let txn = t.txns.(p) in
  match inv with
  | Event.Read x ->
      if owns t p x then Tm_intf.value t.value.(x)
      else if locked_by_other t p x then Tm_intf.answer (abort t p)
      else if t.version.(x) > txn.rv && not (try_extend t p) then
        Tm_intf.answer (abort t p)
      else begin
        txn.reads <- (x, t.version.(x)) :: txn.reads;
        Tm_intf.value t.value.(x)
      end
  | Event.Write (x, v) ->
      Tm_intf.answer
        (if locked_by_other t p x then abort t p
         else if
           t.version.(x) > txn.rv
           && (not (owns t p x))
           && not (try_extend t p)
         then
           (* Writing over a version we could not have read keeps the
              commit-time validation simple: abort early (or extend). *)
           abort t p
         else begin
           if not (owns t p x) then begin
             t.lock.(x) <- Some p;
             txn.undo <- (x, t.value.(x), t.version.(x)) :: txn.undo
           end;
           t.value.(x) <- v;
           Event.Ok_written
         end)
  | Event.Try_commit ->
      (* The exact version comparison of [reads_valid] is what keeps the
         timestamp-extension variant sound — with a moving snapshot,
         "version <= rv" would accept a variable that changed twice. *)
      Tm_intf.answer
        (if not (reads_valid t p txn.reads) then abort t p
         else begin
           t.clock <- t.clock + 1;
           for x = 0 to Array.length t.lock - 1 do
             if owns t p x then begin
               t.version.(x) <- t.clock;
               t.lock.(x) <- None
             end
           done;
           t.txns.(p) <- fresh_txn ();
           Event.Committed
         end)

module Variant (E : sig
  val extension : bool
end) =
Tm_intf.Make (struct
  type nonrec t = t

  let name = if E.extension then "tinystm-ext" else "tinystm"

  let describe =
    if E.extension then
      "TinySTM-style with timestamp extension: encounter-time locking, \
       write-through, snapshot extension on too-new versions"
    else
      "TinySTM-style: encounter-time locking, write-through with undo log \
       (solo progress only in crash-free and parasitic-free systems)"

  let create cfg =
    {
      cfg;
      mail = Tm_intf.Mailbox.create cfg;
      clock = 0;
      value = Array.make cfg.ntvars 0;
      version = Array.make cfg.ntvars 0;
      lock = Array.make cfg.ntvars None;
      txns = Array.init (cfg.nprocs + 1) (fun _ -> fresh_txn ());
      extension = E.extension;
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
  let step = step
end)

let make ~extension : (module Tm_intf.S) =
  (module struct
    type nonrec t = t

    include Variant (struct
      let extension = extension
    end)
  end)

include Variant (struct
  let extension = false
end)
