(* Global-lock serializer — the zoo's blocking baseline.

   One algorithm-global spinlock serializes every transaction: a
   transaction acquires it lazily at its first t-variable access and
   holds it until commit (or abort).  Writes are still buffered so an
   exception rolls the attempt back, but there is no validation and no
   per-t-variable locking: zero aborts under healthy contention, at
   the price of zero parallelism — and of the taxonomy's worst-case
   liveness: any transaction that stops while holding the serializer
   (a crash, a parasitic body) strands every peer.

   Peers never block on the stranded serializer, though: acquisition
   spins a bounded budget and then converts into [Conflict], so a
   starving domain keeps re-running its transaction body (where stop
   flags live) instead of deadlocking inside the runtime.

   Sites: [Lock] before each serializer acquisition attempt (holding
   nothing — this also keeps a starving peer's op clock ticking) and
   [Owned] once it is held; [Read] before each read, *after* the
   serializer is held, so an in-transaction crash deterministically
   strands it; [Publish] before write-back (serializer held).
   [Validate] never fires: there is nothing to validate.  Every site
   must match [Stm.Algo.sites] for Global_lock and sit behind the armed
   guard (tmlive static: seam-contract/seam-guard). *)

open Stm_core

let algo_name = "global-lock"

(* 0 = free, 1 = held. *)
let big_lock = Atomic.make 0

(* A plain CAS spinlock is brutally unfair on real hardware: the
   releasing domain's cache owns the lock line, so its next acquisition
   beats any remote waiter's in-flight CAS almost every time, and with
   the facade's backoff growing on each failed attempt a waiter can be
   locked out for entire observation windows (measured: hundreds of
   thousands of failed CAS against a two-domain hot loop).  So waiters
   register themselves, and a domain that was the last holder yields a
   beat before competing again whenever someone is registered — long
   enough for a registered waiter's CAS to land in the free window. *)
let waiters = Atomic.make 0
let last_holder = Atomic.make (-1)
let yield_spins = 512

(* Blame identity of the current/last serializer holder: [last_holder]
   stores a raw [Domain.self] for the fairness yield and is useless
   for attribution, so the plan slot is tracked separately (written
   only while [Obs] is armed). *)
let blame_holder = Atomic.make (-1)

(* A transaction is its domain's reused buffer (one live global-lock
   transaction per domain): the serializer flag and the shared write
   set. *)
type txn = { mutable held : bool; ws : Wset.t }

let buffer =
  Domain.DLS.new_key (fun () -> { held = false; ws = Wset.create () })

let begin_ () =
  let t = Domain.DLS.get buffer in
  t.held <- false;
  Wset.clear t.ws;
  t

let release t =
  if t.held then begin
    t.held <- false;
    Atomic.set big_lock 0
  end

(* Acquire the serializer, bounded.  [Obs.fire] may raise [Conflict]
   or [Crashed] while we hold nothing; spin exhaustion raises
   [Conflict] (the facade's cleanup finds nothing held). *)
let ensure_locked t =
  if not t.held then begin
    if Atomic.get Obs.armed then Obs.fire Obs.Lock;
    let me = (Domain.self () :> int) in
    if Atomic.get last_holder = me && Atomic.get waiters > 0 then
      for _ = 1 to yield_spins do
        Domain.cpu_relax ()
      done;
    if not (Atomic.compare_and_set big_lock 0 1) then begin
      Atomic.incr waiters;
      Fun.protect
        ~finally:(fun () -> Atomic.decr waiters)
        (fun () ->
          let rec spin budget =
            if Atomic.compare_and_set big_lock 0 1 then ()
            else if budget <= 0 then begin
              if Atomic.get Obs.armed then
                Obs.note (Obs.Conflict Obs.Wait_budget)
                  (Atomic.get blame_holder) (-1);
              raise Conflict
            end
            else begin
              Domain.cpu_relax ();
              spin (budget - 1)
            end
          in
          spin spin_budget)
    end;
    Atomic.set last_holder me;
    if Atomic.get Obs.armed then begin
      Atomic.set blame_holder (Obs.self ());
      Obs.note Obs.Owned (-1) 0
    end;
    t.held <- true
  end

let read (type a) t (tv : a tvar) : a =
  let i = Wset.index t.ws tv.id in
  if i >= 0 then Wset.value t.ws i tv (* read-own-write *)
  else begin
    ensure_locked t;
    if Atomic.get Obs.armed then Obs.fire Obs.Read;
    Atomic.get tv.content
  end

let write t tv x =
  ensure_locked t;
  Wset.add t.ws tv x

let commit t =
  (* A fault at [Publish] holds the serializer: [Abort] releases it (an
     ordinary conflict), [Crash] deliberately does not. *)
  (if Atomic.get Obs.armed then
     match Obs.decide Obs.Publish 0 0 with
     | Obs.Proceed -> ()
     | Obs.Stall n -> Obs.stall n
     | Obs.Abort ->
         release t;
         raise Conflict
     | Obs.Crash -> raise Obs.Crashed);
  write_back t.ws;
  release t

let abort_cleanup t =
  Wset.clear t.ws;
  release t

(* A domain that crashed (or is abandoned) while holding the serializer
   strands it process-wide; recovery is simply dropping it (plus the
   fairness bookkeeping, which only ever named now-dead domains). *)
let recover () =
  Atomic.set big_lock 0;
  Atomic.set waiters 0;
  Atomic.set last_holder (-1);
  Atomic.set blame_holder (-1)

(* A single-location atomic read needs no seqlock here: content is only
   written under the serializer and each write is itself atomic. *)
let direct_read tv = Atomic.get tv.content
