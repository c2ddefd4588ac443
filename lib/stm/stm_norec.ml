(* NOrec: no ownership records — value-based validation under a single
   global sequence lock.

   The only shared metadata is [seqlock]: even = free (the value is the
   commit sequence number), odd = a writer is writing back.  A
   transaction snapshots the sequence number at begin; a read returns
   the content if the lock still equals the snapshot, otherwise it
   re-validates the whole read set value-by-value and adopts the new
   snapshot.  Commit acquires the lock with CAS(snap, snap+1) —
   revalidating until it wins — writes back, and releases to snap+2.

   Validation compares with physical equality ([==]): sound (the same
   box is the same value), conservative (a new structurally-equal box
   aborts spuriously), and safe on contents a polymorphic [=] would
   refuse (closures inside txn_map/txn_list nodes).

   Sites: NOrec has no per-location lock-acquire phase, so this core
   never reaches [Lock] — acquiring the sequence lock *is* validation
   (the CAS argument is the validated snapshot) and starts at
   [Validate], holding nothing.  [Read] comes before each (non-own)
   read and [Publish] once the sequence lock is held — a [Crash] there
   strands it odd forever and every peer starves (bounded spins keep
   them observable), an [Abort] restores it.  Every site must match
   [Stm.Algo.sites] for Norec and sit behind the armed guard (tmlive
   static: seam-contract/seam-guard). *)

open Stm_core

let algo_name = "norec"

(* Even = free (commit sequence number), odd = write-back in progress. *)
let seqlock = Atomic.make 0

(* Blame identity of the last committer (the slot that last won the
   sequence-lock CAS), written only while [Obs] is armed: a
   peer whose value validation fails, or whose wait behind an odd lock
   exhausts its budget, blames this slot. *)
let seq_owner = Atomic.make (-1)

(* A read-set entry: the content cell read and the value seen there. *)
type rentry = R : 'a Atomic.t * 'a -> rentry

(* A transaction is its domain's reused buffer (one live NOrec
   transaction per domain): the snapshot, the read set as two parallel
   arrays filled in read order up to [nr] (the t-variable ids and the
   entries), and the shared write set. *)
type txn = {
  mutable snap : int;
  mutable nr : int;
  mutable r_id : int array;
  mutable r_seen : rentry array;
  ws : Wset.t;
}

let buffer =
  Domain.DLS.new_key (fun () ->
      { snap = 0; nr = 0; r_id = [||]; r_seen = [||]; ws = Wset.create () })

let begin_ () =
  let g = Atomic.get seqlock in
  let t = Domain.DLS.get buffer in
  (* Never block in begin: under an odd (held or stranded) lock start
     from the even value before it.  The lock returns there only if the
     holder backs out without writing anything, so otherwise the first
     read revalidates — spinning where the re-run transaction body
     keeps stop flags observable — and adopts a snapshot taken after
     the holder's write-back.  (The next even value would be wrong: the
     holder releases to exactly that, so a read that sampled a
     t-variable before the write-back would pass the snapshot check
     afterwards and keep the stale value.) *)
  t.snap <- (if g land 1 = 0 then g else g - 1);
  t.nr <- 0;
  Wset.clear t.ws;
  t

let await_even () =
  let rec go budget =
    let v = Atomic.get seqlock in
    if v land 1 = 0 then v
    else if budget <= 0 then begin
      if Atomic.get Obs.armed then
        Obs.note (Obs.Conflict Obs.Wait_budget) (Atomic.get seq_owner) (-1);
      raise Conflict
    end
    else begin
      Domain.cpu_relax ();
      go (budget - 1)
    end
  in
  go spin_budget

(* The newest read at or below [k] whose t-variable no longer holds the
   value seen, or -1. *)
let rec invalid_below t k =
  if k < 0 then -1
  else
    match t.r_seen.(k) with
    | R (cell, v) -> if Atomic.get cell == v then invalid_below t (k - 1) else k

(* Value-based revalidation: wait for a quiescent lock, re-check every
   read, and adopt the observed sequence number as the new snapshot if
   the lock did not move during the checks. *)
let rec revalidate t =
  let s = await_even () in
  let bad = invalid_below t (t.nr - 1) in
  if bad >= 0 then begin
    if Atomic.get Obs.armed then
      Obs.note (Obs.Conflict Obs.Validation) (Atomic.get seq_owner)
        t.r_id.(bad);
    raise Conflict
  end;
  if Atomic.get seqlock = s then t.snap <- s else revalidate t

let rec sample t tv =
  let v = Atomic.get tv.content in
  if Atomic.get seqlock = t.snap then v
  else begin
    revalidate t;
    sample t tv
  end

(* The read set starts empty and doubles; fresh slots are filled with
   the read being added. *)
let grow_reads t r =
  let cap = max 64 (2 * t.nr) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.nr;
    b
  in
  t.r_id <- extend t.r_id 0;
  t.r_seen <- extend t.r_seen r

let read (type a) t (tv : a tvar) : a =
  let i = Wset.index t.ws tv in
  if i >= 0 then Wset.value t.ws i tv (* read-own-write *)
  else begin
    if Atomic.get Obs.armed then Obs.fire Obs.Read;
    let v = sample t tv in
    let r = R (tv.content, v) in
    let k = t.nr in
    if k = Array.length t.r_id then grow_reads t r;
    t.r_id.(k) <- tv.id;
    t.r_seen.(k) <- r;
    t.nr <- k + 1;
    v
  end

let write t tv x = Wset.add t.ws tv x

(* Acquire = validate: CAS the validated snapshot to odd, revalidating
   (and adopting newer snapshots) until it wins. *)
let rec acquire t =
  if not (Atomic.compare_and_set seqlock t.snap (t.snap + 1)) then begin
    revalidate t;
    acquire t
  end

let commit t =
  (* Read-only: the read set was kept snapshot-consistent. *)
  if Wset.length t.ws > 0 then begin
    if Atomic.get Obs.armed then Obs.fire Obs.Validate;
    acquire t;
    if Atomic.get Obs.armed then Atomic.set seq_owner (Obs.self ());
    (* Sequence lock held (odd): an injected [Abort] must restore it, a
       [Crash] deliberately leaves it odd — the stranded-seqlock
       adversary. *)
    (if Atomic.get Obs.armed then
       match Obs.decide Obs.Publish 0 0 with
       | Obs.Proceed -> ()
       | Obs.Stall n -> Obs.stall n
       | Obs.Abort ->
           Atomic.set seqlock t.snap;
           raise Conflict
       | Obs.Crash -> raise Obs.Crashed);
    write_back t.ws;
    Atomic.set seqlock (t.snap + 2)
  end

(* Conflict is only ever raised while the sequence lock is free (the
   held-lock window cannot fail except by deliberate chaos, which
   restores or strands it itself), so there is nothing to release. *)
let abort_cleanup t =
  t.nr <- 0;
  Wset.clear t.ws

(* A transaction that crashed between acquiring the sequence lock and
   publishing leaves it odd forever; once every transaction is finished
   or dead, bumping it to the next even value un-strands the core. *)
let recover () =
  let g = Atomic.get seqlock in
  if g land 1 = 1 then Atomic.set seqlock (g + 1);
  Atomic.set seq_owner (-1)

(* Content cells are only written under the sequence lock and each
   write is atomic; a single-location direct read is a committed (or
   just-committing) value either way. *)
let direct_read tv = Atomic.get tv.content
