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

(* A transaction is its domain's reused buffer (one live TL2
   transaction per domain).  The read set is four parallel arrays,
   filled in read order up to [nr]: the t-variable's vlock, the version
   seen, its id and its blame owner word — a read allocates nothing.
   The write set is the shared [Wset]; at commit it is sorted in place
   and the locks held are its prefix up to [held]. *)
type txn = {
  mutable rv : int;
  mutable nr : int;
  mutable r_vlock : int Atomic.t array;
  mutable r_seen : int array;
  mutable r_id : int array;
  mutable r_owner : int Atomic.t array;
  ws : Wset.t;
  mutable held : int;
}

let buffer =
  Domain.DLS.new_key (fun () ->
      {
        rv = 0;
        nr = 0;
        r_vlock = [||];
        r_seen = [||];
        r_id = [||];
        r_owner = [||];
        ws = Wset.create ();
        held = 0;
      })

let begin_ () =
  let t = Domain.DLS.get buffer in
  t.rv <- Atomic.get clock;
  t.nr <- 0;
  t.held <- 0;
  Wset.clear t.ws;
  t

(* The read set starts empty and doubles; fresh slots are filled with
   the read being added. *)
let grow_reads t tv =
  let cap = max 64 (2 * t.nr) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.nr;
    b
  in
  t.r_vlock <- extend t.r_vlock tv.vlock;
  t.r_seen <- extend t.r_seen 0;
  t.r_id <- extend t.r_id 0;
  t.r_owner <- extend t.r_owner tv.owner

let read_conflict tv =
  if Atomic.get Obs.armed then
    Obs.note (Obs.Conflict Obs.Read_conflict) (Atomic.get tv.owner) tv.id;
  raise Conflict

let read (type a) t (tv : a tvar) : a =
  let i = Wset.index t.ws tv in
  if i >= 0 then Wset.value t.ws i tv (* read-own-write *)
  else begin
    if Atomic.get Obs.armed then Obs.fire Obs.Read;
    let v1 = read_vlock tv in
    if locked v1 || version_of v1 > t.rv then read_conflict tv;
    let x = Atomic.get tv.content in
    if read_vlock tv <> v1 then read_conflict tv;
    let k = t.nr in
    if k = Array.length t.r_id then grow_reads t tv;
    t.r_vlock.(k) <- tv.vlock;
    t.r_seen.(k) <- version_of v1;
    t.r_id.(k) <- tv.id;
    t.r_owner.(k) <- tv.owner;
    t.nr <- k + 1;
    x
  end

let write t tv x = Wset.add t.ws tv x

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

(* Lock the sorted write set in canonical order from entry [k]; back
   out on failure.  Armed, a lock also stamps ownership: the word then
   names the last lock holder / committed writer of the t-variable,
   which is who its next victim blames.  The stamp is stored only when
   it changes: a domain re-locking its own t-variable skips the
   atomic exchange. *)
let rec lock_from t k =
  if k < Wset.length t.ws then begin
    commit_fault t Obs.Lock;
    match Wset.entry t.ws k with
    | W { tv; _ } ->
        if try_lock_tvar tv then begin
          if Atomic.get Obs.armed then begin
            Obs.note Obs.Acquired tv.id k;
            let me = Obs.self () in
            if Atomic.get tv.owner <> me then Atomic.set tv.owner me
          end;
          t.held <- k + 1;
          lock_from t (k + 1)
        end
        else begin
          if Atomic.get Obs.armed then
            Obs.note (Obs.Conflict Obs.Lock_busy) (Atomic.get tv.owner) tv.id;
          release_newest_first t;
          raise Conflict
        end
  end

(* The newest read at or below [k] that no longer holds, or -1.  A read
   holds while its vlock is free (or held by this commit) at the
   version seen, and that version is not past [rv]. *)
let rec invalid_below t k =
  if k < 0 then -1
  else
    let v = Atomic.get t.r_vlock.(k) in
    if
      ((not (locked v)) || Wset.mem_sorted t.ws t.r_id.(k))
      && version_of v <= t.rv
      && version_of v = t.r_seen.(k)
    then invalid_below t (k - 1)
    else k

let commit t =
  let n = Wset.length t.ws in
  (* Read-only: reads were validated against rv as they happened. *)
  if n > 0 then begin
    Wset.sort t.ws;
    lock_from t 0;
    let wv = Atomic.fetch_and_add clock 1 + 1 in
    commit_fault t Obs.Validate;
    let bad = invalid_below t (t.nr - 1) in
    if bad >= 0 then begin
      if Atomic.get Obs.armed then
        Obs.note (Obs.Conflict Obs.Validation)
          (Atomic.get t.r_owner.(bad))
          t.r_id.(bad);
      release_in_order t;
      raise Conflict
    end;
    commit_fault t Obs.Publish;
    (* Publishing a t-variable also releases its lock (the vlock is set
       to the new even version), so it is noted while the lock is still
       really held: a competing domain's acquire can only sequence
       after it. *)
    let armed = Atomic.get Obs.armed in
    for k = 0 to n - 1 do
      match Wset.entry t.ws k with
      | W { tv; v } ->
          if armed then Obs.note Obs.Published tv.id 0;
          publish_tvar tv v wv
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
