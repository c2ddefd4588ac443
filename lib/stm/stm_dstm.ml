(* DSTM-style obstruction-free TM: revocable ownership records with
   abort-others stealing (aggressive contention management).

   Every t-variable points to a locator [{l_status; l_old; l_new}]
   whose [l_status] is the owning transaction's status cell — 0 active,
   1 committed, 2 aborted, transitions monotone and terminal.  The
   committed value is derived: [l_new] if the owner committed, [l_old]
   otherwise.  Writers acquire by installing a fresh locator with CAS;
   commit is a single CAS of the own status cell from active to
   committed — no write-back, no locks.

   Obstruction-free: a transaction running solo finishes in a bounded
   number of its own steps, whatever state crashed peers left behind —
   an active locator abandoned by a crashed owner is simply stolen
   (status CAS 0 -> 2) by the next conflicting access.  The flip side
   is the Kuznetsov–Ravi cost: under contention transactions abort
   each other, and nothing but randomized backoff prevents mutual
   stealing from livelocking.

   Conflict resolution is total: both writes *and reads* encountering
   a foreign active owner steal it.  Reading around an active owner
   (returning [l_old]) would be the classic invisible-reader
   serializability hole — the owner could commit between this
   transaction's commit-time validation and its status CAS.  Stealing
   on every read-write conflict closes it: any two transactions with
   intersecting access sets (where at least one writes) kill one of
   the pair, so a transaction that reaches its commit CAS with its
   reads validated has no live rival ordered both before and after
   it.  Aborted-but-not-yet-retried transactions still see consistent
   snapshots because every read revalidates the whole read set
   (opacity).

   Chaos mapping: [Read] before each (non-own) read, [Lock_acquire]
   before each ownership acquisition, [Validate]/[Pre_commit] around
   commit-time validation with ownerships held, [Post_commit] after
   the commit CAS.  A crash leaves the status cell active forever:
   the crashed-owner adversary that lock-based cores cannot survive
   and this one shrugs off.

   Seam sites here are under static contract: every Tel/Chaos/Blame
   emission must match [Stm.Algo]'s announcement for Dstm and sit
   behind its armed guard (tmlive static: seam-contract/seam-guard). *)

open Stm_core
module Tev = Tm_trace.Trace_event

let algo_name = "dstm"

type rentry = {
  dr_id : int;
  dr_check : unit -> bool;
  dr_owner : unit -> int;  (** blame: installer slot of the current locator *)
}

(* Own-write journal: read-own-write must keep answering with the
   written value even after a rival steals the locator out from under
   us (the doomed transaction still deserves a self-consistent view
   until its commit CAS fails). *)
type dwentry = { dw_id : int; mutable dw_val : univ }

type txn = {
  d_status : int Atomic.t;
  mutable d_reads : rentry list;
  mutable d_writes : dwentry list;
}

let begin_ () = { d_status = Atomic.make 0; d_reads = []; d_writes = [] }

(* The committed value of [tv], treating a still-active foreign owner
   as not-yet-committed.  Used only inside validation closures; the
   access paths resolve conflicts by stealing instead. *)
let committed_univ tv =
  let loc = Atomic.get tv.locator in
  if Atomic.get loc.l_status = 1 then loc.l_new else loc.l_old

let steal loc tv =
  if Atomic.get Trace.tracing then
    Trace.emit Tev.Txn "steal" Tev.Instant [ ("tvar", Tev.Int tv.id) ];
  let stolen = Atomic.compare_and_set loc.l_status 0 2 in
  (* The one aggressor-side blame site: only a successful steal aborts
     someone, and only the stealer knows it happened (the victim's
     commit CAS failure later is this same edge, so it stays silent). *)
  if stolen && Atomic.get Blame.armed then
    Blame.emit_event ~victim:loc.l_owner ~aggressor:(Blame.self ())
      ~tvar:tv.id Blame.Stolen

(* Resolve [tv] for this transaction: own tentative value, or the
   stable value of a terminal locator (stealing any foreign active
   owner first — statuses are terminal, so one steal attempt leaves
   the status stably decided). *)
let rec resolve t tv =
  let loc = Atomic.get tv.locator in
  if loc.l_status == t.d_status then loc.l_new
  else
    let st = Atomic.get loc.l_status in
    if st = 0 then begin
      steal loc tv;
      resolve t tv
    end
    else if st = 1 then loc.l_new
    else loc.l_old

let validate t =
  let rec first_invalid = function
    | [] -> None
    | r :: rest -> if r.dr_check () then first_invalid rest else Some r
  in
  match first_invalid t.d_reads with
  | None -> ()
  | Some bad ->
      if Atomic.get Trace.tracing then
        Trace.emit Tev.Validation "read-invalid" Tev.Instant
          [ ("tvar", Tev.Int bad.dr_id) ];
      if Atomic.get Blame.armed then
        Blame.emit ~aggressor:(bad.dr_owner ()) ~tvar:bad.dr_id
          Blame.Validation;
      raise Conflict

let read (type a) t (tv : a tvar) : a =
  match List.find_opt (fun w -> w.dw_id = tv.id) t.d_writes with
  | Some w -> of_univ tv w.dw_val (* read-own-write, from the journal *)
  | None ->
      if Atomic.get Chaos.armed then Chaos.fire Chaos.Read;
      if Atomic.get Tel.armed then (Atomic.get Tel.probe).Tel.count Tel.Read;
      let u = resolve t tv in
      (* Incremental validation: the new value joined to the prior
         reads must still be one consistent snapshot (opacity for
         doomed transactions included). *)
      validate t;
      t.d_reads <-
        {
          dr_id = tv.id;
          dr_check = (fun () -> committed_univ tv == u);
          dr_owner = (fun () -> (Atomic.get tv.locator).l_owner);
        }
        :: t.d_reads;
      of_univ tv u

let write (type a) t (tv : a tvar) (x : a) : unit =
  let u = univ tv x in
  let rec acquire () =
    let loc = Atomic.get tv.locator in
    if loc.l_status == t.d_status then loc.l_new <- u
    else begin
      if Atomic.get Chaos.armed then Chaos.fire Chaos.Lock_acquire;
      let st = Atomic.get loc.l_status in
      if st = 0 then begin
        steal loc tv;
        acquire ()
      end
      else
        let old = if st = 1 then loc.l_new else loc.l_old in
        let l_owner =
          if Atomic.get Blame.armed then Blame.self () else -1
        in
        let loc' = { l_status = t.d_status; l_old = old; l_new = u; l_owner } in
        if not (Atomic.compare_and_set tv.locator loc loc') then acquire ()
    end
  in
  acquire ();
  match List.find_opt (fun w -> w.dw_id = tv.id) t.d_writes with
  | Some w -> w.dw_val <- u
  | None -> t.d_writes <- { dw_id = tv.id; dw_val = u } :: t.d_writes

let commit t =
  let tel = Atomic.get Tel.armed in
  let tp = if tel then Atomic.get Tel.probe else Tel.null_probe in
  (* [Chaos.fire]'s interpretation is right even with ownerships held:
     an [Abort] raises [Conflict] and the facade's [abort_cleanup]
     revokes them (one status CAS); a [Crash] leaves them active. *)
  if Atomic.get Chaos.armed then Chaos.fire Chaos.Validate;
  let t0 = if tel then tp.Tel.now () else 0 in
  validate t;
  let t1 =
    if tel then begin
      let t' = tp.Tel.now () in
      tp.Tel.observe Tel.Validate (t' - t0);
      t'
    end
    else 0
  in
  if Atomic.get Chaos.armed then Chaos.fire Chaos.Pre_commit;
  (* The whole commit: one CAS.  Failure means a rival stole us. *)
  if not (Atomic.compare_and_set t.d_status 0 1) then raise Conflict;
  if tel then tp.Tel.observe Tel.Publish (tp.Tel.now () - t1);
  if Atomic.get Chaos.armed then Chaos.fire Chaos.Post_commit

(* Revoke: one terminal status CAS abandons every owned locator at its
   old value.  Idempotent, and a no-op on a committed/stolen cell. *)
let abort_cleanup t =
  ignore (Atomic.compare_and_set t.d_status 0 2);
  t.d_reads <- [];
  t.d_writes <- []

(* No core-global state at all — abandoned ownerships are stolen by the
   next rival, which is the whole point of the algorithm. *)
let recover () = ()

let direct_read tv = of_univ tv (committed_univ tv)
