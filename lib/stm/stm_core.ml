(* Shared substrate of the real-domains STM algorithm zoo.

   Everything algorithm-independent lives here: the t-variable
   representation, the write set the write-back cores share, the
   observation seams ([Trace], [Chaos], [Tel], [Blame]) and the core
   interface [S] that each algorithm implements.  The [Stm] facade
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
      (* plan slot of the installing transaction's domain when the Blame
         seam is armed, -1 otherwise — lets a stealer name its victim *)
}

type 'a tvar = {
  id : int;
  wit : 'a Type.Id.t;
  content : 'a Atomic.t;
  vlock : int Atomic.t;
  locator : locator Atomic.t;
  owner : int Atomic.t;
      (* plan slot of the last lock holder / committed writer, written
         only while the Blame seam is armed (-1 = unknown) *)
}

let next_id = Atomic.make 0

(* All freshly created t-variables share one permanently-committed
   status cell: a steal (CAS 0 -> 2) on it can never succeed, and no
   transaction ever owns it. *)
let root_status = Atomic.make 1

module Tev = Tm_trace.Trace_event

(* Runtime tracing.  The hot path pays one [Atomic.get] on a global flag
   per potential event; when the flag is false no event is even
   constructed.  When on, each domain writes into its own fixed-size ring
   (single-writer, no lock on the emit path) registered in a global list
   so [events] can collect them afterwards.  Timestamps come from a global
   emission sequence — they give a total order of emissions, not wall
   time. *)
module Trace = struct
  type mode = Off | Null | Rings of int

  let tracing = Atomic.make false
  let mode = Atomic.make Off
  let generation = Atomic.make 0
  let seq = Atomic.make 0
  let emitted_count = Atomic.make 0
  let registry_mu = Mutex.create ()
  let registry : Tm_trace.Ring.t list ref = ref []

  let slot : (int * Tm_trace.Ring.t) option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let default_capacity = 4096

  let reset_locked m =
    registry := [];
    Atomic.incr generation;
    Atomic.set seq 0;
    Atomic.set emitted_count 0;
    Atomic.set mode m;
    Atomic.set tracing (m <> Off)

  let start ?(capacity = default_capacity) () =
    if capacity < 1 then invalid_arg "Stm.Trace.start: capacity must be positive";
    Mutex.protect registry_mu (fun () -> reset_locked (Rings capacity))

  let start_null () = Mutex.protect registry_mu (fun () -> reset_locked Null)

  let stop () =
    Mutex.protect registry_mu (fun () ->
        Atomic.set tracing false;
        Atomic.set mode Off)

  let is_on () = Atomic.get tracing

  (* The per-domain ring is cached in DLS together with the generation it
     belongs to, so a stale ring from a previous [start] is never written
     into the current session. *)
  let ring_for_domain gen =
    let r = Domain.DLS.get slot in
    match !r with
    | Some (g, ring) when g = gen -> Some ring
    | _ -> (
        match Atomic.get mode with
        | Rings cap ->
            let ring = Tm_trace.Ring.create ~capacity:cap in
            let registered =
              Mutex.protect registry_mu (fun () ->
                  if Atomic.get generation = gen then begin
                    registry := ring :: !registry;
                    true
                  end
                  else false)
            in
            if registered then begin
              r := Some (gen, ring);
              Some ring
            end
            else None
        | Off | Null -> None)

  let emit cat name phase args =
    let ts = Atomic.fetch_and_add seq 1 in
    let tid = (Domain.self () :> int) in
    let e = { Tev.ts; pid = 0; tid; cat; name; phase; args } in
    Atomic.incr emitted_count;
    match Atomic.get mode with
    | Off | Null -> ()
    | Rings _ -> (
        match ring_for_domain (Atomic.get generation) with
        | Some ring -> Tm_trace.Ring.add ring e
        | None -> ())

  let events () =
    let evs =
      Mutex.protect registry_mu (fun () ->
          List.concat_map Tm_trace.Ring.to_list !registry)
    in
    List.sort (fun (a : Tev.t) b -> Int.compare a.ts b.ts) evs

  let dropped () =
    Mutex.protect registry_mu (fun () ->
        List.fold_left (fun acc r -> acc + Tm_trace.Ring.dropped r) 0 !registry)

  let emitted () = Atomic.get emitted_count
end

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

(* Deterministic fault injection.  Same zero-cost discipline as [Trace]:
   every interception point costs one [Atomic.get] on [armed] when no
   plan is installed, and only consults the handler when armed.  The
   handler decides per point: proceed, abort the attempt (a normal
   conflict, counted and retried), stall (bounded spinning), or crash.
   [Crashed] escapes [atomically] through its generic exception arm
   without releasing any commit locks the domain holds — a crash at
   [Pre_commit] is therefore the paper's crashed-lock-holder adversary,
   observable on real domains.  Where each point fires is
   algorithm-specific; see [Stm.Algo] for the per-core mapping. *)
module Chaos = struct
  type point = Read | Validate | Lock_acquire | Pre_commit | Post_commit
  type action = Proceed | Abort | Stall of int | Crash

  exception Crashed

  let null_handler : point -> action = fun _ -> Proceed
  let armed = Atomic.make false
  let handler = Atomic.make null_handler

  let install f =
    Atomic.set handler f;
    Atomic.set armed true

  let uninstall () =
    Atomic.set armed false;
    Atomic.set handler null_handler

  let is_armed () = Atomic.get armed

  let point_label = function
    | Read -> "read"
    | Validate -> "validate"
    | Lock_acquire -> "lock-acquire"
    | Pre_commit -> "pre-commit"
    | Post_commit -> "post-commit"

  let stall n =
    for _ = 1 to n do
      Domain.cpu_relax ()
    done

  let decide p = if Atomic.get armed then (Atomic.get handler) p else Proceed

  (* Interpretation for points where the domain holds no commit locks;
     commit paths interpret actions themselves so an [Abort] can back
     out whatever the core already holds (and a [Crash] deliberately
     does not). *)
  let fire p =
    match decide p with
    | Proceed -> ()
    | Stall n -> stall n
    | Abort -> raise Conflict
    | Crash -> raise Crashed
end

(* Always-on telemetry.  Third user of the zero-cost discipline of
   [Trace] and [Chaos]: every instrumented event costs one [Atomic.get]
   on [armed] while no probe is installed, and the probe record is only
   loaded once armed.  The probe supplies its own clock so this module
   stays clock-library-agnostic; [now] must be monotone and its unit is
   whatever the installer counts in (tm_telemetry installs nanoseconds).
   Durations handed to [observe] are [now] deltas in that unit. *)
module Tel = struct
  type phase = Begin | Read | Lock | Validate | Publish | Commit | Abort

  type probe = {
    now : unit -> int;
    count : phase -> unit;
    observe : phase -> int -> unit;
  }

  let null_probe =
    { now = (fun () -> 0); count = (fun _ -> ()); observe = (fun _ _ -> ()) }

  let armed = Atomic.make false
  let probe = Atomic.make null_probe

  let install p =
    Atomic.set probe p;
    Atomic.set armed true

  let uninstall () =
    Atomic.set armed false;
    Atomic.set probe null_probe

  let is_armed () = Atomic.get armed

  let phase_label = function
    | Begin -> "begin"
    | Read -> "read"
    | Lock -> "lock-acquire"
    | Validate -> "validate"
    | Publish -> "publish"
    | Commit -> "commit"
    | Abort -> "abort"
end

(* Blame attribution.  Fourth user of the zero-cost seam discipline:
   every abort/steal/wait decision site in the cores costs one
   [Atomic.get] on [armed] while no sink is installed.  When armed, the
   cores additionally stamp ownership (tvar [owner], locator [l_owner])
   with the emitter's plan slot so the aggressor of a conflict can be
   named; disarmed they never touch those words, so the fast path is
   byte-identical to the pre-blame one.

   Identity is the {e plan slot} (0..domains-1) of the worker's domain,
   not the raw [Domain.self ()]: the chaos runner assigns slots, one
   live transaction per slot, so slot = transaction for attribution
   purposes and the graph is comparable across runs.  Code running
   outside a slotted worker reports -1 ("unknown"). *)
module Blame = struct
  type cause = Read_conflict | Lock_busy | Validation | Stolen | Wait_budget

  type event = {
    b_victim : int;  (** slot whose attempt is impeded (-1 unknown) *)
    b_aggressor : int;  (** slot held responsible (-1 unknown) *)
    b_tvar : int;  (** t-variable id the conflict was on (-1 none) *)
    b_cause : cause;
  }

  type sink = { on_event : event -> unit; on_progress : int -> unit }

  let null_sink = { on_event = (fun _ -> ()); on_progress = (fun _ -> ()) }
  let armed = Atomic.make false
  let sink = Atomic.make null_sink

  let install s =
    Atomic.set sink s;
    Atomic.set armed true

  let uninstall () =
    Atomic.set armed false;
    Atomic.set sink null_sink

  let is_armed () = Atomic.get armed

  let cause_label = function
    | Read_conflict -> "read-conflict"
    | Lock_busy -> "lock-busy"
    | Validation -> "validation"
    | Stolen -> "stolen"
    | Wait_budget -> "wait-budget"

  let causes =
    [ Read_conflict; Lock_busy; Validation; Stolen; Wait_budget ]

  let slot_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref (-1))
  let set_self s = Domain.DLS.get slot_key := s
  let self () = !(Domain.DLS.get slot_key)

  (* Only called from armed-guarded sites; no second [armed] check.
     [emit_event] is for the one site where the emitter is the
     aggressor (the DSTM steal); everywhere else the victim reports
     its own impediment via [emit]. *)
  let emit_event ~victim ~aggressor ~tvar cause =
    (Atomic.get sink).on_event
      { b_victim = victim; b_aggressor = aggressor; b_tvar = tvar; b_cause = cause }

  let emit ~aggressor ~tvar cause =
    emit_event ~victim:(self ()) ~aggressor ~tvar cause

  let progress () =
    if Atomic.get armed then (Atomic.get sink).on_progress (self ())
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
   trace shows the write set acquired, published and released under it
   in id order, and the lock-discipline lints see a coherent protocol.
   [tr] is tracing as sampled when the commit began. *)
let write_back tr ws =
  Wset.sort ws;
  let n = Wset.length ws in
  let tr = tr && Atomic.get Trace.tracing in
  if tr then
    for k = 0 to n - 1 do
      Trace.emit Tev.Lock "acquire" Tev.Instant
        [ ("tvar", Tev.Int (Wset.id ws k)); ("order", Tev.Int k) ]
    done;
  for k = 0 to n - 1 do
    match Wset.entry ws k with
    | W { tv; v } ->
        if tr then begin
          Trace.emit Tev.Txn "publish" Tev.Instant
            [ ("tvar", Tev.Int tv.id) ];
          Trace.emit Tev.Lock "release" Tev.Instant
            [ ("tvar", Tev.Int tv.id) ]
        end;
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
   [Stm] facade owns the retry loop (backoff, trace attempt spans, Tel
   Begin/Commit/Abort timing, global commit/abort counters) and the
   per-domain current-transaction slot.

   Contract:
   - At most one transaction per core is live on a domain at a time:
     [begin_] hands out the domain's reused buffer.
   - [begin_] never blocks and never raises: any waiting happens in
     [read]/[write]/[commit] where the re-run transaction body keeps
     external stop-flags observable.
   - [read]/[write]/[commit] raise [Conflict] to abort the attempt and
     may raise [Chaos.Crashed]; before re-running (or on any other
     exception) the facade calls [abort_cleanup], which must be
     idempotent and release everything the attempt still holds.
     [abort_cleanup] is never called after [Chaos.Crashed]: a crashed
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
