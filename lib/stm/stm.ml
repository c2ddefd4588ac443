(* The public STM facade over the pluggable algorithm zoo.

   Algorithm-independent machinery lives in [Stm_core] (t-variables,
   the [Obs] seam); the four cores live in [Stm_tl2], [Stm_glock],
   [Stm_dstm] and [Stm_norec].  This module owns what the cores share
   behaviourally: the per-domain slot, the retry loop with randomized
   exponential backoff and its [Begin]/[Commit]/[Abort]/[Backoff]
   sites, the per-domain commit/abort counts, and the trace ring — the
   [Obs] subscriber that renders sites as trace events — so every
   algorithm gets identical observability for free. *)

module Tev = Tm_trace.Trace_event
module Obs = Stm_core.Obs

type 'a tvar = 'a Stm_core.tvar

exception Retry

let tvar = Stm_core.tvar

(* Runtime tracing: an [Obs] subscriber writing into per-domain rings.
   Each domain writes its own fixed-size ring (single-writer, no lock
   on the record path), registered in a global list so [events] can
   collect them afterwards.  A session records an attempt only if it
   saw the attempt begin, so a commit traces all of its lock events or
   none.  Timestamps come from a global emission sequence — a total
   order of emissions, not wall time. *)
module Trace = struct
  let generation = Atomic.make 0
  let seq = Atomic.make 0
  let emitted_count = Atomic.make 0
  let registry_mu = Mutex.create ()
  let registry : Tm_trace.Ring.t list ref = ref []
  let session : Obs.handle option Atomic.t = Atomic.make None

  (* A domain's view of the session: its ring ([None] under the null
     sink) and the generation whose attempt it is in. *)
  type lane = { mutable gen : int; mutable ring : Tm_trace.Ring.t option }

  let lane_key = Domain.DLS.new_key (fun () -> { gen = -1; ring = None })

  let record lane cat name phase args =
    let ts = Atomic.fetch_and_add seq 1 in
    let e =
      { Tev.ts; pid = 0; tid = (Domain.self () :> int); cat; name; phase; args }
    in
    Atomic.incr emitted_count;
    Option.iter (fun r -> Tm_trace.Ring.add r e) lane.ring

  (* Enter a new attempt.  The ring is created on the domain's first
     attempt of the session, and registered only if the session is
     still the current one. *)
  let enter lane gen capacity =
    if lane.gen <> gen then begin
      lane.gen <- gen;
      lane.ring <-
        Option.bind capacity (fun cap ->
            let ring = Tm_trace.Ring.create ~capacity:cap in
            Mutex.protect registry_mu (fun () ->
                if Atomic.get generation <> gen then None
                else begin
                  registry := ring :: !registry;
                  Some ring
                end))
    end

  let tvar_arg id = [ ("tvar", Tev.Int id) ]

  let subscriber gen capacity : Obs.subscriber =
   fun site a b ->
    let lane = Domain.DLS.get lane_key in
    (match site with
    | Obs.Begin ->
        enter lane gen capacity;
        record lane Tev.Txn "attempt" Tev.Span_begin [ ("attempt", Tev.Int a) ]
    | _ when lane.gen <> gen -> ()
    | Obs.Commit ->
        record lane Tev.Txn "attempt" Tev.Span_end
          [ ("outcome", Tev.Str "commit") ]
    | Obs.Abort o ->
        record lane Tev.Txn "attempt" Tev.Span_end
          [ ("outcome", Tev.Str (Obs.outcome_label o)) ]
    | Obs.Backoff ->
        record lane Tev.Backoff "wait" Tev.Instant
          [ ("attempt", Tev.Int a); ("spins", Tev.Int b) ]
    | Obs.Acquired ->
        record lane Tev.Lock "acquire" Tev.Instant
          [ ("tvar", Tev.Int a); ("order", Tev.Int b) ]
    | Obs.Released -> record lane Tev.Lock "release" Tev.Instant (tvar_arg a)
    | Obs.Published ->
        record lane Tev.Txn "publish" Tev.Instant (tvar_arg a);
        record lane Tev.Lock "release" Tev.Instant (tvar_arg a)
    | Obs.Steal -> record lane Tev.Txn "steal" Tev.Instant (tvar_arg a)
    | Obs.Conflict Obs.Lock_busy ->
        record lane Tev.Lock "busy" Tev.Instant (tvar_arg b)
    | Obs.Conflict Obs.Validation ->
        record lane Tev.Validation "read-invalid" Tev.Instant (tvar_arg b)
    | Obs.Read | Obs.Lock | Obs.Owned | Obs.Validate | Obs.Publish
    | Obs.Conflict _ ->
        ());
    Obs.Proceed

  let stop_locked () =
    Option.iter Obs.unsubscribe (Atomic.get session);
    Atomic.set session None

  let start_with capacity =
    Mutex.protect registry_mu (fun () ->
        stop_locked ();
        registry := [];
        let gen = Atomic.fetch_and_add generation 1 + 1 in
        Atomic.set seq 0;
        Atomic.set emitted_count 0;
        Atomic.set session (Some (Obs.subscribe (subscriber gen capacity))))

  let start ?(capacity = 4096) () =
    if capacity < 1 then
      invalid_arg "Stm.Trace.start: capacity must be positive";
    start_with (Some capacity)

  let start_null () = start_with None
  let stop () = Mutex.protect registry_mu stop_locked
  let is_on () = Option.is_some (Atomic.get session)
  let owns h =
    match Atomic.get session with Some t -> t == h | None -> false

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

module Algo = struct
  type t = Tl2 | Global_lock | Dstm | Norec

  let all = [ Tl2; Global_lock; Dstm; Norec ]

  let name = function
    | Tl2 -> "tl2"
    | Global_lock -> "global-lock"
    | Dstm -> "dstm"
    | Norec -> "norec"

  let of_string s =
    match String.lowercase_ascii s with
    | "tl2" -> Ok Tl2
    | "global-lock" | "glock" -> Ok Global_lock
    | "dstm" -> Ok Dstm
    | "norec" -> Ok Norec
    | _ ->
        Error
          (Fmt.str "unknown algorithm %S (try: %s)" s
             (String.concat ", " (List.map name all)))

  let progress_label = function
    | Tl2 -> "progressive"
    | Global_lock -> "blocking"
    | Dstm -> "obstruction-free"
    | Norec -> "commit-serialized"

  (* The sites each core reaches itself — its one announcement table.
     The facade adds [Begin], [Commit], [Abort] and [Backoff] for every
     core.  The absences are structural: the global-lock serializer
     validates nothing, NOrec acquires no per-location lock, only TL2
     backs out per-location locks ([Released]) and has per-location
     read/lock conflicts, only the stealing DSTM core steals, the
     serialized cores convert waits behind their one lock into
     [Wait_budget], the write-back cores note their lock protocol
     ([Acquired], [Published]), and the cores that lock in the body
     (global-lock, DSTM) note each acquisition they win ([Owned]). *)
  let sites = function
    | Tl2 ->
        [
          Obs.Read;
          Obs.Lock;
          Obs.Acquired;
          Obs.Validate;
          Obs.Publish;
          Obs.Published;
          Obs.Released;
          Obs.Conflict Obs.Read_conflict;
          Obs.Conflict Obs.Lock_busy;
          Obs.Conflict Obs.Validation;
        ]
    | Global_lock ->
        [
          Obs.Read;
          Obs.Lock;
          Obs.Owned;
          Obs.Publish;
          Obs.Acquired;
          Obs.Published;
          Obs.Conflict Obs.Wait_budget;
        ]
    | Dstm ->
        [
          Obs.Read;
          Obs.Lock;
          Obs.Owned;
          Obs.Validate;
          Obs.Publish;
          Obs.Steal;
          Obs.Conflict Obs.Validation;
          Obs.Conflict Obs.Stolen;
        ]
    | Norec ->
        [
          Obs.Read;
          Obs.Validate;
          Obs.Publish;
          Obs.Acquired;
          Obs.Published;
          Obs.Conflict Obs.Validation;
          Obs.Conflict Obs.Wait_budget;
        ]
end

let core_of : Algo.t -> (module Stm_core.S) = function
  | Algo.Tl2 -> (module Stm_tl2)
  | Algo.Global_lock -> (module Stm_glock)
  | Algo.Dstm -> (module Stm_dstm)
  | Algo.Norec -> (module Stm_norec)

let selected_algo = Atomic.make Algo.Tl2
let selected : (module Stm_core.S) Atomic.t = Atomic.make (core_of Algo.Tl2)

let set_algo a =
  Atomic.set selected_algo a;
  Atomic.set selected (core_of a)

let algo () = Atomic.get selected_algo

let with_algo a f =
  let prev = algo () in
  set_algo a;
  Fun.protect ~finally:(fun () -> set_algo prev) f

(* {2 Commit and abort counts}

   One cell per domain, written only by its domain, so a commit costs
   one plain store and no domain contends with another on a counter
   (the facade keeps disjoint-access parallelism: transactions on
   disjoint data share no base object here).  [stats] sums the live
   cells and the counts folded in from exited domains; the registry
   holds only these cells, never a domain's transaction buffers. *)
type counts = { mutable commits : int; mutable aborts : int }

let registry = Mutex.create ()
let live : counts list ref = ref []
let retired = { commits = 0; aborts = 0 }

(* A fresh cell for the calling domain, folded into [retired] when the
   domain exits: [Domain.join] returns only after the exit callbacks ran,
   so a joined domain's counts are exact. *)
let register () =
  let c = { commits = 0; aborts = 0 } in
  Mutex.protect registry (fun () -> live := c :: !live);
  Domain.at_exit (fun () ->
      Mutex.protect registry (fun () ->
          retired.commits <- retired.commits + c.commits;
          retired.aborts <- retired.aborts + c.aborts;
          live := List.filter (fun c' -> c' != c) !live));
  c

let stats () =
  Mutex.protect registry (fun () ->
      List.fold_left
        (fun (n, a) c -> (n + c.commits, a + c.aborts))
        (retired.commits, retired.aborts)
        !live)

(* {2 The per-domain slot}

   Everything the attempt loop keeps between attempts, in one record per
   domain reused by every transaction: the live transaction ([cur],
   [None] outside one), the pairing of each core with its transaction,
   the backoff generator and the counts.  Every core's [begin_] hands
   back its domain's one buffer, so each pair is built once per domain
   and an attempt allocates nothing here. *)

(* A core paired with its transaction buffer on this domain. *)
type packed = P : (module Stm_core.S with type txn = 't) * 't -> packed

type slot = {
  mutable cur : packed option;
  cores : packed option array;  (* by [algo_index] *)
  self : int;
  mutable prng : int;
  counts : counts;
}

let algo_index = function
  | Algo.Tl2 -> 0
  | Algo.Global_lock -> 1
  | Algo.Dstm -> 2
  | Algo.Norec -> 3

let slot : slot Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        cur = None;
        cores = Array.make (List.length Algo.all) None;
        self = (Domain.self () :> int);
        prng = 0;
        counts = register ();
      })

let in_transaction () = Option.is_some (Domain.DLS.get slot).cur

let read (type a) (tv : a tvar) : a =
  match (Domain.DLS.get slot).cur with
  | Some (P ((module C), t)) -> C.read t tv
  | None ->
      let (module C) = Atomic.get selected in
      C.direct_read tv

let write (type a) (tv : a tvar) (x : a) : unit =
  match (Domain.DLS.get slot).cur with
  | Some (P ((module C), t)) -> C.write t tv x
  | None -> invalid_arg "Stm.write outside a transaction"

let retry () = raise Retry

let backoff s attempts =
  let bound = 1 lsl min attempts 10 in
  let spins = 1 + ((s.prng * 1103515245) + 12345) land 0x3FFFFFFF in
  s.prng <- spins;
  let n_spins = spins mod bound in
  if Atomic.get Obs.armed then Obs.note Obs.Backoff attempts n_spins;
  for _ = 1 to n_spins do
    Domain.cpu_relax ()
  done

(* Begin an attempt under algorithm [a]: reset its core's buffer and
   make it the slot's live transaction, pairing the two on the core's
   first use on this domain. *)
let begin_attempt s a =
  let i = algo_index a in
  match s.cores.(i) with
  | Some (P ((module C), _)) as pair ->
      ignore (C.begin_ ());
      s.cur <- pair
  | None ->
      let (module C) = core_of a in
      let pair = Some (P ((module C), C.begin_ ())) in
      s.cores.(i) <- pair;
      s.cur <- pair

let end_attempt o = if Atomic.get Obs.armed then Obs.note (Obs.Abort o) 0 0

(* Release what the live transaction holds and leave it. *)
let abandon s =
  (match s.cur with
  | Some (P ((module C), t)) -> C.abort_cleanup t
  | None -> ());
  s.cur <- None

(* After an abandoned attempt: count the abort, end it and back off
   before the next one. *)
let next_attempt s o backoff_n =
  s.counts.aborts <- s.counts.aborts + 1;
  end_attempt o;
  backoff s backoff_n

let commit_live s =
  match s.cur with
  | Some (P ((module C), t)) -> C.commit t
  | None -> ()

(* The commit took effect: an injected [Abort] has nothing left to
   abort, a [Crash] kills the domain after the fact. *)
let committed () =
  if Atomic.get Obs.armed then
    match Obs.decide Obs.Commit 0 0 with
    | Obs.Proceed | Obs.Abort -> ()
    | Obs.Stall n -> Obs.stall n
    | Obs.Crash -> raise Obs.Crashed

(* One attempt, and the next ones until a commit.  Every argument is
   explicit so that an attempt builds no closure. *)
let rec attempt : type a. slot -> Algo.t -> (unit -> a) -> int -> a =
 fun s a f n ->
  if Atomic.get Obs.armed then Obs.note Obs.Begin n 0;
  begin_attempt s a;
  match f () with
  | result -> (
      match commit_live s with
      | () ->
          s.cur <- None;
          s.counts.commits <- s.counts.commits + 1;
          committed ();
          result
      | exception Stm_core.Conflict ->
          abandon s;
          next_attempt s Obs.Conflicted n;
          attempt s a f (n + 1)
      | exception (Obs.Crashed as e) ->
          (* A crashed commit keeps everything it holds: no cleanup, and
             the attempt stays open — the domain is gone. *)
          s.cur <- None;
          raise e)
  | exception Stm_core.Conflict ->
      abandon s;
      next_attempt s Obs.Conflicted n;
      attempt s a f (n + 1)
  | exception Retry ->
      abandon s;
      next_attempt s Obs.Retried (n + 2);
      attempt s a f (n + 1)
  | exception (Obs.Crashed as e) ->
      (* Crashed in the body: same no-cleanup contract. *)
      s.cur <- None;
      end_attempt Obs.Raised;
      raise e
  | exception e ->
      abandon s;
      end_attempt Obs.Raised;
      raise e

let atomically f =
  let s = Domain.DLS.get slot in
  match s.cur with
  | Some _ -> f () (* flat nesting: join the enclosing transaction *)
  | None ->
      s.prng <- s.self;
      attempt s (Atomic.get selected_algo) f 0

let recover () =
  (* A recovery point is also where stranded subscribers go: a harness
     that died between subscribing and unsubscribing must not leave a
     chaos plan, telemetry probe or blame graph armed across runs.  A
     trace session is the caller's to stop.  Recovering twice is
     harmless. *)
  Obs.retain Trace.owns;
  let (module C) = Atomic.get selected in
  C.recover ()
