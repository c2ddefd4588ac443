(* TL2 over OCaml 5 atomics — the default core of the zoo.

   A global version clock, per-t-variable versioned spinlocks, deferred
   updates, commit-time lock acquisition in canonical order and
   read-set validation.  Readers use the classic seqlock protocol
   (read vlock, read content, read vlock again) and validate against
   the transaction's read version.  Progressive in the
   Kuznetsov–Ravi sense: a transaction aborts only on a real data
   conflict (or a chaos fault).

   Observation sites here are under static contract: every [Obs] site
   must match [Stm.Algo.sites] for Tl2 and sit behind the armed guard
   (tmlive static: seam-contract/seam-guard). *)

open Stm_core

let algo_name = "tl2"
let clock = Atomic.make 0

(* The vlock word: bit 0 is the lock, the next [Obs.slot_bits] bits
   the blame owner (plan slot + 1, 0 = unknown) and the version sits
   above them.  A commit locks with its own owner bits, so while the
   lock is held they name the holder, and after a publish or a back-out
   they name the last lock holder — who the t-variable's next victim
   blames.  Disarmed, a commit's owner bits are 0: the word then costs
   the disarmed path nothing the plain version word did not. *)
let version_shift = Obs.slot_bits + 1
let owner_mask = ((1 lsl Obs.slot_bits) - 1) lsl 1
let locked v = v land 1 = 1
let version_of v = v lsr version_shift
let owner_of v = ((v land owner_mask) lsr 1) - 1
let read_vlock tv = Atomic.get tv.vlock

(* This commit's owner bits: the domain's slot while armed, else 0. *)
let owner_bits () = if Atomic.get Obs.armed then (Obs.self () + 1) lsl 1 else 0

(* Lock [tv], whose vlock word was read as [v], with this commit's
   owner bits; fails if the word is locked or has moved since. *)
let try_lock_tvar tv v stamp =
  (not (locked v))
  && Atomic.compare_and_set tv.vlock v (v land lnot owner_mask lor stamp lor 1)

let unlock_tvar tv =
  let v = read_vlock tv in
  if locked v then Atomic.set tv.vlock (v land lnot 1)

(* Set the content and release the vlock at version [wv]. *)
let publish_tvar tv x wv stamp =
  Atomic.set tv.content x;
  Atomic.set tv.vlock ((wv lsl version_shift) lor stamp)

(* Direct (non-transactional) atomic snapshot read through the vlock
   seqlock. *)
let rec snapshot_read tv =
  let v1 = read_vlock tv in
  if locked v1 then begin
    Domain.cpu_relax ();
    snapshot_read tv
  end
  else
    let x = Atomic.get tv.content in
    if read_vlock tv = v1 then x
    else begin
      Domain.cpu_relax ();
      snapshot_read tv
    end

(* A transaction is its domain's reused buffer (one live TL2
   transaction per domain).  The read set is three parallel arrays,
   filled in read order up to [nr]: the t-variable's vlock, the version
   seen and its id — a read allocates nothing, and stores one pointer.
   [fresh] is the id of the last read that missed the write set (the
   read set's last entry) until the next write, else -1.
   The write set is the shared [Wset], with an int per entry by
   insertion index in [w_word]: the version seen by the read the entry
   took over (-1 if none) until the commit locks it, then the word the
   lock replaced.  At commit the set is sorted (through its index
   permutation), the locks held are its sorted prefix up to [held],
   and [stale] is the sorted index of the last one whose replaced word
   is not at the version seen, or -1. *)
type txn = {
  mutable rv : int;
  mutable nr : int;
  mutable r_vlock : int Atomic.t array;
  mutable r_seen : int array;
  mutable r_id : int array;
  mutable fresh : int;
  ws : Wset.t;
  mutable w_word : int array;
  mutable held : int;
  mutable stale : int;
}

let buffer =
  Domain.DLS.new_key (fun () ->
      {
        rv = 0;
        nr = 0;
        r_vlock = [||];
        r_seen = [||];
        r_id = [||];
        fresh = -1;
        ws = Wset.create ();
        w_word = [||];
        held = 0;
        stale = -1;
      })

let begin_ () =
  let t = Domain.DLS.get buffer in
  t.rv <- Atomic.get clock;
  t.nr <- 0;
  t.fresh <- -1;
  t.held <- 0;
  Wset.clear t.ws;
  t

(* The read set starts empty and doubles; fresh slots are filled with
   the read being added. *)
let grow_reads t tv =
  t.r_vlock <- extend t.r_vlock t.nr tv.vlock;
  t.r_seen <- extend t.r_seen t.nr 0;
  t.r_id <- extend t.r_id t.nr 0

(* [v] is the vlock word that failed the read: its owner is the
   aggressor. *)
let read_conflict v tv =
  if Atomic.get Obs.armed then
    Obs.note (Obs.Conflict Obs.Read_conflict) (owner_of v) tv.id;
  raise Conflict

let read (type a) t (tv : a tvar) : a =
  let i = Wset.index t.ws tv.id in
  if i >= 0 then Wset.value t.ws i tv (* read-own-write *)
  else begin
    if Atomic.get Obs.armed then Obs.fire Obs.Read;
    let v1 = read_vlock tv in
    if locked v1 || version_of v1 > t.rv then read_conflict v1 tv;
    let x = Atomic.get tv.content in
    let v2 = read_vlock tv in
    if v2 <> v1 then read_conflict v2 tv;
    (* A re-read of the last entry's t-variable adds nothing: any newer
       version than the one recorded would have failed the rv check. *)
    let k = t.nr in
    if k = 0 || t.r_id.(k - 1) <> tv.id then begin
      if k = Array.length t.r_id then grow_reads t tv;
      t.r_vlock.(k) <- tv.vlock;
      t.r_seen.(k) <- version_of v1;
      t.r_id.(k) <- tv.id;
      t.nr <- k + 1
    end;
    t.fresh <- tv.id;
    x
  end

(* A write of the t-variable whose read was the last to miss the write
   set appends without a search: that read leaves the read set, and its
   version moves into the entry, to be checked against the word the
   entry's lock replaces.  Any other write searches. *)
let write t tv x =
  let n = Wset.length t.ws in
  if n = Array.length t.w_word then t.w_word <- extend t.w_word n 0;
  if tv.id = t.fresh then begin
    Wset.push t.ws tv x;
    t.nr <- t.nr - 1;
    t.w_word.(n) <- t.r_seen.(t.nr)
  end
  else begin
    Wset.add t.ws tv x;
    (* Past the end unless [add] appended. *)
    t.w_word.(n) <- -1
  end;
  t.fresh <- -1

(* Release one held lock.  Note the release before the real unlock:
   once the vlock is even another domain can acquire it, and its
   acquire must sequence after ours. *)
let release_at t k =
  match Wset.entry t.ws k with
  | W { tv; _ } ->
      if Atomic.get Obs.armed then Obs.note Obs.Released tv.id 0;
      unlock_tvar tv

(* A busy lock or an injected [Abort] backs out newest first; a failed
   validation releases in acquisition order. *)
let release_newest_first t =
  for k = t.held - 1 downto 0 do
    release_at t k
  done

let release_in_order t =
  for k = 0 to t.held - 1 do
    release_at t k
  done

(* A fault injected inside commit: [Abort] backs out held locks like
   any conflict; [Crash] deliberately does not — a crashed lock holder
   is the experiment. *)
let commit_fault t site =
  if Atomic.get Obs.armed then
    match Obs.decide site 0 0 with
    | Obs.Proceed -> ()
    | Obs.Stall n -> Obs.stall n
    | Obs.Abort ->
        release_newest_first t;
        raise Conflict
    | Obs.Crash -> raise Obs.Crashed

(* Lock the sorted write set in canonical order from entry [k], with
   this commit's owner bits; back out on failure.  A busy lock's word
   names its holder.  An entry that took over a read is validated by
   its lock: a replaced word not at the version seen is recorded in
   [stale] and reported after the [Validate] site. *)
let rec lock_from t stamp k =
  if k < Wset.length t.ws then begin
    commit_fault t Obs.Lock;
    match Wset.entry t.ws k with
    | W { tv; _ } ->
        let v = read_vlock tv in
        if try_lock_tvar tv v stamp then begin
          if Atomic.get Obs.armed then Obs.note Obs.Acquired tv.id k;
          t.held <- k + 1;
          let i = Wset.slot t.ws k in
          let seen = t.w_word.(i) in
          t.w_word.(i) <- v;
          if seen >= 0 && version_of v <> seen then t.stale <- k;
          lock_from t stamp (k + 1)
        end
        else begin
          if Atomic.get Obs.armed then
            Obs.note (Obs.Conflict Obs.Lock_busy)
              (owner_of (read_vlock tv))
              tv.id;
          release_newest_first t;
          raise Conflict
        end
  end

(* The word read [k] is validated against: its vlock, or for a
   t-variable this commit holds, the word its lock replaced. *)
let word_at t k =
  let v = Atomic.get t.r_vlock.(k) in
  if locked v then
    let i = Wset.index t.ws t.r_id.(k) in
    if i >= 0 then t.w_word.(i) else v
  else v

(* The newest read at or below [k] that no longer holds, or -1.  A read
   holds while its word is free at the version seen (which [read]
   checked is not past [rv]). *)
let rec invalid_below t k =
  if k < 0 then -1
  else
    let v = word_at t k in
    if (not (locked v)) && version_of v = t.r_seen.(k) then
      invalid_below t (k - 1)
    else k

(* [v] is the word that failed validation: its owner is the aggressor,
   never this commit, which holds no lock on it when it is read. *)
let validation_conflict t v id =
  if Atomic.get Obs.armed then
    Obs.note (Obs.Conflict Obs.Validation) (owner_of v) id;
  release_in_order t;
  raise Conflict

let commit t =
  let n = Wset.length t.ws in
  (* Read-only: reads were validated against rv as they happened. *)
  if n > 0 then begin
    let stamp = owner_bits () in
    Wset.sort t.ws;
    t.stale <- -1;
    lock_from t stamp 0;
    let wv = Atomic.fetch_and_add clock 1 + 1 in
    commit_fault t Obs.Validate;
    if t.stale >= 0 then begin
      let i = Wset.slot t.ws t.stale in
      validation_conflict t t.w_word.(i) (Wset.id t.ws t.stale)
    end;
    let bad = invalid_below t (t.nr - 1) in
    if bad >= 0 then validation_conflict t (word_at t bad) t.r_id.(bad);
    commit_fault t Obs.Publish;
    (* Publishing a t-variable also releases its lock (the vlock is set
       to the new even version), so it is noted while the lock is still
       really held: a competing domain's acquire can only sequence
       after it. *)
    let armed = Atomic.get Obs.armed in
    for k = 0 to n - 1 do
      match Wset.entry t.ws k with
      | W { tv; v; _ } ->
          if armed then Obs.note Obs.Published tv.id 0;
          publish_tvar tv v wv stamp
    done
  end

(* TL2 holds commit vlocks only inside [commit], and [commit] releases
   them on every [Conflict] path itself; nothing is ever left held when
   the facade sees an abort, and [begin_] resets the sets. *)
let abort_cleanup _txn = ()

(* No core-global lock state: a crashed commit's stranded vlocks live
   on the run's own t-variables, recovered by dropping them. *)
let recover () = ()
let direct_read tv = snapshot_read tv
