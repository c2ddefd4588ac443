(* DSTM-style obstruction-free TM: revocable ownership records with
   abort-others stealing (aggressive contention management).

   Every t-variable DSTM has touched points to a locator
   [{l_status; l_old; l_new}] whose [l_status] is the owning
   transaction's status cell — 0 active, 1 committed, 2 aborted,
   transitions monotone and terminal.  An untouched one points to the
   shared [Stm_core.untouched] sentinel, its value in [content]; the
   first read or write CASes a real locator in.  The
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

   Sites: [Read] before each (non-own) read, [Lock] before each
   ownership acquisition and [Owned] once its CAS wins,
   [Validate]/[Publish] around commit-time validation with ownerships
   held.  A crash leaves the status cell active forever: the
   crashed-owner adversary that lock-based cores cannot survive and
   this one shrugs off.  Every site must match
   [Stm.Algo.sites] for Dstm and sit behind the armed guard (tmlive
   static: seam-contract/seam-guard). *)

open Stm_core

let algo_name = "dstm"

(* Pack a value of [tv] (a fresh block each call: the block is the
   version validation compares), and unpack one packed for the same
   t-variable, so the [None] arm is unreachable. *)
let univ tv x = U (tv.wit, x)

let of_univ (type a) (tv : a tvar) (U (w, x)) : a =
  match Type.Id.provably_equal w tv.wit with
  | Some Type.Equal -> x
  | None -> assert false

(* The permanently-committed status cell of the locators a first read
   installs: a steal (CAS 0 -> 2) on it can never succeed, and no
   transaction ever owns it. *)
let root_status = Atomic.make 1

(* A transaction is its domain's reused buffer (one live DSTM
   transaction per domain) around a status cell that is fresh each
   attempt: the locators an attempt installs keep its cell after the
   buffer moves on.  The read set is three parallel arrays, filled in
   read order up to [nr]: the locator cell read, the [univ] block seen
   there — validation compares it by identity with the cell's current
   committed value — and the t-variable's id.  The own-write journal is
   the shared [Wset]: read-own-write must keep answering with the
   written value even after a rival steals the locator out from under
   us (the doomed transaction still deserves a self-consistent view
   until its commit CAS fails). *)
type txn = {
  mutable d_status : int Atomic.t;
  mutable nr : int;
  mutable r_cell : locator Atomic.t array;
  mutable r_seen : univ array;
  mutable r_id : int array;
  ws : Wset.t;
}

let buffer =
  Domain.DLS.new_key (fun () ->
      {
        d_status = Atomic.make 2;
        nr = 0;
        r_cell = [||];
        r_seen = [||];
        r_id = [||];
        ws = Wset.create ();
      })

let begin_ () =
  let t = Domain.DLS.get buffer in
  t.d_status <- Atomic.make 0;
  t.nr <- 0;
  Wset.clear t.ws;
  t

(* The committed value of a locator, treating a still-active foreign
   owner as not-yet-committed.  The access paths steal an active owner
   first, so to them it is the stable value of a terminal locator. *)
let committed loc = if Atomic.get loc.l_status = 1 then loc.l_new else loc.l_old

let steal loc tv =
  if Atomic.get Obs.armed then Obs.note Obs.Steal tv.id 0;
  let stolen = Atomic.compare_and_set loc.l_status 0 2 in
  (* The one aggressor-side conflict: only a successful steal aborts
     someone, and only the stealer knows it happened (the victim's
     commit CAS failure later is this same edge, so it stays silent).
     The other party it names is therefore the victim. *)
  if stolen && Atomic.get Obs.armed then
    Obs.note (Obs.Conflict Obs.Stolen) loc.l_owner tv.id

(* Resolve [tv] for this transaction: own tentative value, or the
   stable value of a terminal locator (stealing any foreign active
   owner first — statuses are terminal, so one steal attempt leaves
   the status stably decided).  A first touch installs a committed
   locator around [content], so every value a read returns is a [univ]
   block validation can compare. *)
let rec resolve t tv =
  let loc = Atomic.get tv.locator in
  if loc == untouched then begin
    let u = univ tv (Atomic.get tv.content) in
    let loc' = { l_status = root_status; l_old = u; l_new = u; l_owner = -1 } in
    if Atomic.compare_and_set tv.locator loc loc' then u else resolve t tv
  end
  else if loc.l_status == t.d_status then loc.l_new
  else if Atomic.get loc.l_status = 0 then begin
    steal loc tv;
    resolve t tv
  end
  else committed loc

(* The newest read at or below [k] whose cell no longer holds the value
   seen as its committed value, or -1. *)
let rec invalid_below t k =
  if k < 0 then -1
  else if committed (Atomic.get t.r_cell.(k)) == t.r_seen.(k) then
    invalid_below t (k - 1)
  else k

(* A failed validation ends the attempt on the spot: its status CAS
   makes it terminal, so no later steal can claim the same abort.  If
   the CAS fails, a rival has already stolen the attempt, and that
   steal, which the stealer reported, is the abort's one conflict. *)
let validate t =
  let bad = invalid_below t (t.nr - 1) in
  if bad >= 0 then begin
    let own = Atomic.compare_and_set t.d_status 0 2 in
    if own && Atomic.get Obs.armed then
      Obs.note (Obs.Conflict Obs.Validation)
        (Atomic.get t.r_cell.(bad)).l_owner t.r_id.(bad);
    raise Conflict
  end

(* The read set starts empty and doubles; fresh slots are filled with
   the read being added. *)
let grow_reads t tv u =
  t.r_cell <- extend t.r_cell t.nr tv.locator;
  t.r_seen <- extend t.r_seen t.nr u;
  t.r_id <- extend t.r_id t.nr 0

let read (type a) t (tv : a tvar) : a =
  let i = Wset.index t.ws tv in
  if i >= 0 then Wset.value t.ws i tv (* read-own-write, from the journal *)
  else begin
    if Atomic.get Obs.armed then Obs.fire Obs.Read;
    let u = resolve t tv in
    (* Incremental validation: the new value joined to the prior reads
       must still be one consistent snapshot (opacity for doomed
       transactions included). *)
    validate t;
    (* A re-read of the last entry, which [validate] just held, adds
       nothing. *)
    let k = t.nr in
    if k = 0 || t.r_id.(k - 1) <> tv.id || t.r_seen.(k - 1) != u then begin
      if k = Array.length t.r_id then grow_reads t tv u;
      t.r_cell.(k) <- tv.locator;
      t.r_seen.(k) <- u;
      t.r_id.(k) <- tv.id;
      t.nr <- k + 1
    end;
    of_univ tv u
  end

(* Own [tv] with tentative value [u]: install a locator of this
   transaction's status cell, stealing a foreign active owner first. *)
let rec acquire t tv u =
  let loc = Atomic.get tv.locator in
  if loc.l_status == t.d_status then loc.l_new <- u
  else begin
    if Atomic.get Obs.armed then Obs.fire Obs.Lock;
    if Atomic.get loc.l_status = 0 then begin
      steal loc tv;
      acquire t tv u
    end
    else
      let old =
        if loc == untouched then univ tv (Atomic.get tv.content)
        else committed loc
      in
      let l_owner = if Atomic.get Obs.armed then Obs.self () else -1 in
      let loc' = { l_status = t.d_status; l_old = old; l_new = u; l_owner } in
      if not (Atomic.compare_and_set tv.locator loc loc') then acquire t tv u
      else if Atomic.get Obs.armed then Obs.note Obs.Owned tv.id 0
  end

let write t tv x =
  acquire t tv (univ tv x);
  Wset.add t.ws tv x

let commit t =
  (* [Obs.fire]'s interpretation is right even with ownerships held: an
     [Abort] raises [Conflict] and the facade's [abort_cleanup] revokes
     them (one status CAS); a [Crash] leaves them active. *)
  if Atomic.get Obs.armed then Obs.fire Obs.Validate;
  validate t;
  if Atomic.get Obs.armed then Obs.fire Obs.Publish;
  (* The whole commit: one CAS.  Failure means a rival stole us. *)
  if not (Atomic.compare_and_set t.d_status 0 1) then raise Conflict

(* Revoke: one terminal status CAS abandons every owned locator at its
   old value.  Idempotent, and a no-op on a committed/stolen cell. *)
let abort_cleanup t =
  ignore (Atomic.compare_and_set t.d_status 0 2);
  t.nr <- 0;
  Wset.clear t.ws

(* No core-global state at all — abandoned ownerships are stolen by the
   next rival, which is the whole point of the algorithm. *)
let recover () = ()

(* An untouched t-variable's value is its [content]. *)
let direct_read tv =
  let loc = Atomic.get tv.locator in
  if loc == untouched then Atomic.get tv.content else of_univ tv (committed loc)
