(* Shared substrate of the real-domains STM algorithm zoo.

   Everything algorithm-independent lives here: the t-variable
   representation, the write set the write-back cores share, the
   observation seam [Obs] and the core interface [S] that each
   algorithm implements.  The [Stm] facade
   dispatches the public API to the currently selected core; the cores
   themselves live in [Stm_tl2], [Stm_glock], [Stm_dstm] and
   [Stm_norec].

   Type erasure for heterogeneous sets uses a per-t-variable
   [Type.Id] witness: a set entry keeps the t-variable it came from,
   and a lookup that finds the entry by id casts its value back through
   [Type.Id.provably_equal] — no [Obj], and the cast allocates
   nothing. *)

type univ = U : 'a Type.Id.t * 'a -> univ

(* DSTM-style locator: the committed value of a t-variable owned by a
   transaction is derived from the owner's status.  [l_status] is the
   owner transaction's status cell (shared across all its locators):
   0 = active, 1 = committed, 2 = aborted; transitions are monotone
   and terminal (only 0->1 and 0->2 ever happen).  Non-DSTM cores
   ignore the locator entirely. *)
type locator = {
  l_status : int Atomic.t;
  l_old : univ;
  mutable l_new : univ;
  l_owner : int;
      (* plan slot of the installing transaction's domain when [Obs] is
         armed, -1 otherwise — lets a stealer name its victim *)
}

type 'a tvar = {
  id : int;
  wit : 'a Type.Id.t;
  content : 'a Atomic.t;
  vlock : int Atomic.t;
  locator : locator Atomic.t;
  owner : int Atomic.t;
      (* plan slot of the last lock holder / committed writer, written
         only while [Obs] is armed (-1 = unknown) *)
}

let next_id = Atomic.make 0

(* All freshly created t-variables share one permanently-committed
   status cell: a steal (CAS 0 -> 2) on it can never succeed, and no
   transaction ever owns it. *)
let root_status = Atomic.make 1

let tvar (type a) (init : a) : a tvar =
  let wit = Type.Id.make () in
  let u0 = U (wit, init) in
  {
    id = Atomic.fetch_and_add next_id 1;
    wit;
    content = Atomic.make init;
    vlock = Atomic.make 0;
    locator =
      Atomic.make { l_status = root_status; l_old = u0; l_new = u0; l_owner = -1 };
    owner = Atomic.make (-1);
  }

(* The witness cast: [x], typed at [dst], given that [src] and [dst]
   belong to the same t-variable.  Callers only pair witnesses after
   matching t-variable ids, so the [None] arm is unreachable. *)
let cast (type a b) (src : a Type.Id.t) (dst : b Type.Id.t) (x : a) : b =
  match Type.Id.provably_equal src dst with
  | Some Type.Equal -> x
  | None -> assert false

let univ tv x = U (tv.wit, x)
let of_univ (type a) (tv : a tvar) (U (w, x)) : a = cast w tv.wit x

exception Retry
exception Conflict

(* Inside [Obs], [Conflict] names the conflict site. *)
let abort_attempt () = raise Conflict

(* The observation seam.  Every decision site of the cores and of the
   facade's retry loop is one [site]; a site costs one [Atomic.get] on
   [armed] while nothing is subscribed, and nothing else — no event is
   built, no subscriber list is loaded.  Armed, each site goes to every
   subscriber in subscription order, on the emitting domain, with two
   int payloads whose meaning the site fixes (see the interface).

   Subscribers are the trace ring ([Stm.Trace]), a chaos plan, the
   telemetry probe and the blame graph.  Only a chaos plan answers with
   anything but [Proceed]: at [Read], [Lock], [Validate], [Publish] and
   [Commit] the answer is a fault to inject.  [Crashed] escapes
   [atomically] without releasing the locks the domain holds — a crash
   at [Publish] is the paper's crashed-lock-holder adversary, observable
   on real domains.

   Identity is the {e plan slot} (0..domains-1) a harness binds with
   [set_self], not the raw [Domain.self ()]: one live transaction per
   slot makes slot = transaction for blame, and slots are comparable
   across runs.  Unbound domains report -1 ("unknown"). *)
module Obs = struct
  type cause = Read_conflict | Lock_busy | Validation | Stolen | Wait_budget
  type outcome = Conflicted | Retried | Raised
  type action = Proceed | Abort | Stall of int | Crash

  type site =
    | Begin
    | Read
    | Lock
    | Validate
    | Publish
    | Conflict of cause
    | Commit
    | Abort of outcome
    | Acquired
    | Owned
    | Released
    | Published
    | Steal
    | Backoff

  exception Crashed

  type subscriber = site -> int -> int -> action
  type handle = { on : subscriber }

  (* The last non-[Proceed] answer wins; only a chaos plan gives one. *)
  let deliver_all s site a b =
    let act = ref Proceed in
    for i = 0 to Array.length s - 1 do
      match s.(i).on site a b with Proceed -> () | x -> act := x
    done;
    !act

  (* The subscribers, and what a site calls: the one subscriber itself
     when there is one (the usual case: a site then costs one closure
     call), else a loop over all of them. *)
  let armed = Atomic.make false
  let subs : handle array ref = ref [||]
  let dispatch : subscriber Atomic.t = Atomic.make (deliver_all [||])
  let registry_mu = Mutex.create ()

  let update f =
    Mutex.protect registry_mu (fun () ->
        let s = f !subs in
        subs := s;
        Atomic.set dispatch
          (if Array.length s = 1 then s.(0).on else deliver_all s);
        Atomic.set armed (Array.length s > 0))

  let subscribe on =
    let h = { on } in
    update (fun s -> Array.append s [| h |]);
    h

  let retain keep =
    update (fun s -> Array.of_list (List.filter keep (Array.to_list s)))

  let unsubscribe h = retain (fun h' -> h' != h)

  let decide site a b = (Atomic.get dispatch) site a b

  let note site a b = ignore (decide site a b)

  let stall n =
    for _ = 1 to n do
      Domain.cpu_relax ()
    done

  (* Interpretation for sites where the domain holds no commit locks;
     commit paths interpret [decide] themselves so an [Abort] can
     back out whatever the core already holds (and a [Crash]
     deliberately does not). *)
  let fire site =
    match decide site 0 0 with
    | Proceed -> ()
    | Stall n -> stall n
    | Abort -> abort_attempt ()
    | Crash -> raise Crashed

  let slot_key : int ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref (-1))

  let set_self s = Domain.DLS.get slot_key := s
  let self () = !(Domain.DLS.get slot_key)

  let cause_label = function
    | Read_conflict -> "read-conflict"
    | Lock_busy -> "lock-busy"
    | Validation -> "validation"
    | Stolen -> "stolen"
    | Wait_budget -> "wait-budget"

  let causes = [ Read_conflict; Lock_busy; Validation; Stolen; Wait_budget ]

  let outcome_label = function
    | Conflicted -> "conflict"
    | Retried -> "retry"
    | Raised -> "exception"

  let site_label = function
    | Begin -> "begin"
    | Read -> "read"
    | Lock -> "lock-acquire"
    | Validate -> "validate"
    | Publish -> "publish"
    | Conflict c -> "conflict:" ^ cause_label c
    | Commit -> "commit"
    | Abort o -> "abort:" ^ outcome_label o
    | Acquired -> "acquired"
    | Owned -> "owned"
    | Released -> "released"
    | Published -> "published"
    | Steal -> "steal"
    | Backoff -> "backoff"
end

(* Versioned-lock helpers (TL2's vlock word: even = unlocked, value is
   version << 1; odd = locked by a committing transaction). *)
let locked v = v land 1 = 1
let version_of v = v lsr 1
let read_vlock tv = Atomic.get tv.vlock

let try_lock_tvar tv =
  let v = read_vlock tv in
  (not (locked v)) && Atomic.compare_and_set tv.vlock v (v lor 1)

let unlock_tvar tv =
  let v = read_vlock tv in
  if locked v then Atomic.set tv.vlock (v land lnot 1)

let publish_tvar tv x wv =
  Atomic.set tv.content x;
  Atomic.set tv.vlock (wv lsl 1)

(* The write set shared by the write-back cores (TL2, global-lock,
   NOrec): the pending value of each written t-variable, as data.  An
   entry is the t-variable plus its buffered value, so the commit
   protocols can lock, publish and stamp ownership without closures.
   Entries live in a pair of parallel arrays — the ids, scanned by
   lookups and the commit-time sort, and the entries themselves — that
   each core keeps per domain and reuses for every transaction: they
   grow by doubling and are never freed (nor cleared, so they keep the
   last values written alive until overwritten). *)
type wentry = W : { tv : 'a tvar; mutable v : 'a } -> wentry

module Wset = struct
  type t = {
    mutable ids : int array;
    mutable entries : wentry array;
    mutable n : int;
  }

  (* Empty until the first write: [grow] fills fresh slots with the
     entry being added, so no placeholder entry is needed. *)
  let create () = { ids = [||]; entries = [||]; n = 0 }

  let clear s = s.n <- 0
  let length s = s.n
  let entry s i = s.entries.(i)
  let id s i = s.ids.(i)

  (* Index of [tv]'s entry, or -1.  Newest first: a transaction that
     re-reads what it just wrote finds it at once. *)
  let index s tv =
    let i = ref (s.n - 1) in
    while !i >= 0 && s.ids.(!i) <> tv.id do
      decr i
    done;
    !i

  let value (type a) s i (tv : a tvar) : a =
    match s.entries.(i) with W w -> cast w.tv.wit tv.wit w.v

  let grow s fill =
    let cap = max 32 (2 * s.n) in
    let ids = Array.make cap 0 and entries = Array.make cap fill in
    Array.blit s.ids 0 ids 0 s.n;
    Array.blit s.entries 0 entries 0 s.n;
    s.ids <- ids;
    s.entries <- entries

  (* Buffer [x] for [tv]: a first write costs the one entry block, a
     rewrite allocates nothing. *)
  let add (type a) s (tv : a tvar) (x : a) =
    let i = index s tv in
    if i >= 0 then (
      match s.entries.(i) with W w -> w.v <- cast tv.wit w.tv.wit x)
    else begin
      let e = W { tv; v = x } in
      if s.n = Array.length s.ids then grow s e;
      s.ids.(s.n) <- tv.id;
      s.entries.(s.n) <- e;
      s.n <- s.n + 1
    end

  (* Ascending ids, in place: the canonical commit order.  Insertion
     sort — write sets are short and often nearly sorted. *)
  let sort s =
    for i = 1 to s.n - 1 do
      let id = s.ids.(i) and e = s.entries.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && s.ids.(!j) > id do
        s.ids.(!j + 1) <- s.ids.(!j);
        s.entries.(!j + 1) <- s.entries.(!j);
        decr j
      done;
      s.ids.(!j + 1) <- id;
      s.entries.(!j + 1) <- e
    done

  (* Membership by binary search; only valid after [sort]. *)
  let rec search (ids : int array) id lo hi =
    lo < hi
    &&
    let mid = (lo + hi) lsr 1 in
    let m = ids.(mid) in
    m = id
    || if m < id then search ids id (mid + 1) hi else search ids id lo mid

  let mem_sorted s id = search s.ids id 0 s.n
end

(* Write-back for the serialized cores (global-lock, NOrec), which run
   it holding their one lock.  Holding it is holding every lock, so the
   write set is noted acquired, published and released under it in id
   order, and the lock-discipline lints see a coherent protocol. *)
let write_back ws =
  Wset.sort ws;
  let n = Wset.length ws in
  let armed = Atomic.get Obs.armed in
  if armed then
    for k = 0 to n - 1 do
      Obs.note Obs.Acquired (Wset.id ws k) k
    done;
  for k = 0 to n - 1 do
    match Wset.entry ws k with
    | W { tv; v } ->
        if armed then Obs.note Obs.Published tv.id 0;
        Atomic.set tv.content v
  done

(* Direct (non-transactional) atomic snapshot read through the vlock
   seqlock — the write-back cores' [direct_read]. *)
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

(* Bounded spinning for the serialized cores.  A peer stuck behind a
   stranded lock (a crashed holder) must not hang: after [spin_budget]
   relax iterations the wait is converted into an ordinary [Conflict],
   so the attempt aborts, the transaction body re-runs, and whatever
   stop-flag the body checks stays observable.  Such a domain
   classifies as starving rather than deadlocked. *)
let spin_budget = 1 lsl 14

(* Per-algorithm core.  A core supplies the transaction engine; the
   [Stm] facade owns the retry loop (backoff, the [Begin], [Commit],
   [Abort] and [Backoff] sites, per-domain commit/abort count cells) and
   the per-domain current-transaction slot.

   Contract:
   - At most one transaction per core is live on a domain at a time:
     [begin_] hands out the domain's reused buffer.
   - [begin_] never blocks and never raises: any waiting happens in
     [read]/[write]/[commit] where the re-run transaction body keeps
     external stop-flags observable.
   - [read]/[write]/[commit] raise [Conflict] to abort the attempt and
     may raise [Obs.Crashed]; before re-running (or on any other
     exception) the facade calls [abort_cleanup], which must be
     idempotent and release everything the attempt still holds.
     [abort_cleanup] is never called after [Obs.Crashed]: a crashed
     transaction keeps whatever it holds, by design.
   - [commit] returning normally means the transaction took effect;
     the core has released everything. *)
module type S = sig
  type txn

  val algo_name : string
  val begin_ : unit -> txn
  val read : txn -> 'a tvar -> 'a
  val write : txn -> 'a tvar -> 'a -> unit
  val commit : txn -> unit
  val abort_cleanup : txn -> unit
  val recover : unit -> unit
  val direct_read : 'a tvar -> 'a
end

type packed = P : (module S with type txn = 't) * 't -> packed
