(* Shared substrate of the real-domains STM algorithm zoo.

   Everything algorithm-independent lives here: the t-variable
   representation, the write set every core keeps, the
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

(* The t-variable keeps only what more than one core reads: the
   identity and type witness every set entry needs, the committed
   content, TL2's vlock word (which also carries its blame owner) and
   DSTM's locator cell.  17 words when fresh: the record (6), the three
   atomics (2 each) and the witness (5). *)
type 'a tvar = {
  id : int;
  wit : 'a Type.Id.t;
  content : 'a Atomic.t;
  vlock : int Atomic.t;
  locator : locator Atomic.t;
}

let next_id = Atomic.make 0

(* The one locator every fresh t-variable points at: "committed, the
   value is in [content]".  DSTM replaces it on first touch and never
   installs it again; its fields are never read. *)
let untouched =
  let u = U (Type.Id.make (), ()) in
  { l_status = Atomic.make 1; l_old = u; l_new = u; l_owner = -1 }

let tvar init =
  {
    id = Atomic.fetch_and_add next_id 1;
    wit = Type.Id.make ();
    content = Atomic.make init;
    vlock = Atomic.make 0;
    locator = Atomic.make untouched;
  }

(* The witness cast: [x], typed at [dst], given that [src] and [dst]
   belong to the same t-variable.  Callers only pair witnesses after
   matching t-variable ids, so the [None] arm is unreachable. *)
let cast (type a b) (src : a Type.Id.t) (dst : b Type.Id.t) (x : a) : b =
  match Type.Id.provably_equal src dst with
  | Some Type.Equal -> x
  | None -> assert false

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

  (* A slot must fit TL2's vlock word beside the lock bit and the
     version: [slot_bits] bits hold slot + 1, 0 meaning unknown. *)
  let slot_bits = 8
  let max_slot = (1 lsl slot_bits) - 2

  let set_self s =
    if s < -1 || s > max_slot then
      invalid_arg
        (Fmt.str "Stm.Obs.set_self: slot %d outside -1..%d" s max_slot);
    Domain.DLS.get slot_key := s

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

(* The write set shared by the write-back cores (TL2, global-lock,
   NOrec) and DSTM's own-write journal: the pending value of each
   written t-variable, as data.  An entry is a write cell — the
   t-variable, its buffered value, the epoch of the transaction it is
   live in and its insertion index there — so the commit protocols can
   lock and publish without closures.
   Each set keeps a direct-mapped table of cells, one slot per
   [id land cell_mask], that outlives its transactions: a t-variable's
   first write on a domain allocates its cell, and its later first
   writes reuse it.  A cell is live while its epoch is the set's;
   [clear] bumps the epoch and so empties the set in O(1).  Beside the
   table sit a pair of parallel arrays in insertion order — the ids,
   scanned by the commit-time sort and after a spill, and the cells —
   that each core keeps per domain and reuses for every transaction:
   they grow by doubling and are never freed (nor cleared, so they keep
   the last values written alive until overwritten). *)
type wentry =
  | W : {
      tv : 'a tvar;
      mutable v : 'a;
      mutable epoch : int;
      mutable at : int;
    }
      -> wentry

(* How every per-domain set grows: [a]'s first [n] elements in a fresh
   array with room to double, filled past them with [fill] (the entry
   being added, so no placeholder entry is needed). *)
let extend a n fill =
  let b = Array.make (max 64 (2 * n)) fill in
  Array.blit a 0 b 0 n;
  b

module Wset = struct
  (* [ids] and [entries] stay in insertion order; [order] is a
     permutation of [0, n) that [sort] puts in ascending-id order.
     Sorting moves only ints, so it never writes a cell into the
     long-lived [entries] array.  [spills] counts the entries of this
     transaction that found their table slot held by another live
     t-variable's cell: they got a block of their own, which only a
     scan of [ids] finds. *)
  type t = {
    mutable ids : int array;
    mutable entries : wentry array;
    mutable order : int array;
    mutable n : int;
    mutable epoch : int;
    mutable table : wentry array;
    mutable spills : int;
  }

  let cells = 4096
  let cell_mask = cells - 1

  (* What an unused table slot holds: a cell of no t-variable (id -1,
     which no [tvar] hands out) that is never live. *)
  let vacant =
    let tv =
      {
        id = -1;
        wit = Type.Id.make ();
        content = Atomic.make ();
        vlock = Atomic.make 0;
        locator = Atomic.make untouched;
      }
    in
    W { tv; v = (); epoch = -1; at = -1 }

  (* Empty until the first write, the table included: a domain that
     never writes never pays for it. *)
  let create () =
    {
      ids = [||];
      entries = [||];
      order = [||];
      n = 0;
      epoch = 0;
      table = [||];
      spills = 0;
    }

  let clear s =
    s.n <- 0;
    s.epoch <- s.epoch + 1;
    s.spills <- 0

  let length s = s.n
  let entry s k = s.entries.(s.order.(k))
  let id s k = s.ids.(s.order.(k))

  (* A spilled entry's insertion index: newest first. *)
  let scan s id =
    let i = ref (s.n - 1) in
    while !i >= 0 && s.ids.(!i) <> id do
      decr i
    done;
    !i

  (* Index of the entry of t-variable [id], or -1.  Its slot's cell
     answers unless the slot holds another t-variable's cell and this
     transaction has spilled: a slot that holds a live cell keeps it
     until [clear], so a t-variable whose own cell sits in its slot was
     never spilled. *)
  let index s id =
    if s.n = 0 then -1
    else
      match s.table.(id land cell_mask) with
      | W w when w.tv.id = id -> if w.epoch = s.epoch then w.at else -1
      | _ -> if s.spills > 0 then scan s id else -1

  let value (type a) s i (tv : a tvar) : a =
    match s.entries.(i) with W w -> cast w.tv.wit tv.wit w.v

  let grow s fill =
    s.ids <- extend s.ids s.n 0;
    s.entries <- extend s.entries s.n fill;
    s.order <- extend s.order s.n 0

  (* The cell for [tv]'s first write in this transaction: its own cell
     from the table, else a new one that takes over a slot no live cell
     holds, else (a collision) a block of its own. *)
  let claim (type a) s (tv : a tvar) (x : a) =
    if Array.length s.table = 0 then s.table <- Array.make cells vacant;
    let h = tv.id land cell_mask in
    match s.table.(h) with
    | W w as e when w.tv.id = tv.id ->
        w.v <- cast tv.wit w.tv.wit x;
        w.epoch <- s.epoch;
        w.at <- s.n;
        e
    | W w ->
        let e = W { tv; v = x; epoch = s.epoch; at = s.n } in
        if w.epoch = s.epoch then s.spills <- s.spills + 1
        else s.table.(h) <- e;
        e

  (* Append an entry for [tv], which the caller knows is not in the
     set, without searching.  A transaction that repeats the last one's
     writes finds each cell already at its index: it skips the write
     barrier. *)
  let push s tv x =
    let e = claim s tv x in
    if s.n = Array.length s.ids then grow s e;
    s.ids.(s.n) <- tv.id;
    if s.entries.(s.n) != e then s.entries.(s.n) <- e;
    s.order.(s.n) <- s.n;
    s.n <- s.n + 1

  (* Buffer [x] for [tv]: a rewrite, and the first write of a t-variable
     whose cell is in the table, allocate nothing. *)
  let add (type a) s (tv : a tvar) (x : a) =
    let i = index s tv.id in
    if i >= 0 then (
      match s.entries.(i) with W w -> w.v <- cast tv.wit w.tv.wit x)
    else push s tv x

  (* Ascending ids through [order]: the canonical commit order.
     Insertion sort — write sets are short and often nearly sorted. *)
  let sort s =
    let ids = s.ids and order = s.order in
    for i = 1 to s.n - 1 do
      let o = order.(i) in
      let id = ids.(o) in
      let j = ref (i - 1) in
      while !j >= 0 && ids.(order.(!j)) > id do
        order.(!j + 1) <- order.(!j);
        decr j
      done;
      order.(!j + 1) <- o
    done

  let slot s k = s.order.(k)
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
    | W { tv; v; _ } ->
        if armed then Obs.note Obs.Published tv.id 0;
        Atomic.set tv.content v
  done

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
     [begin_] resets and hands out the domain's reused buffer, the same
     value on every call.
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

