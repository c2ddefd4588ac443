(* The public STM facade over the pluggable algorithm zoo.

   Algorithm-independent machinery lives in [Stm_core] (t-variables,
   the Trace/Chaos/Tel seams); the four cores live in [Stm_tl2],
   [Stm_glock], [Stm_dstm] and [Stm_norec].  This module owns what the
   cores share behaviourally: the per-domain slot, the retry loop with
   randomized exponential backoff, trace attempt spans, Tel
   Begin/Commit/Abort accounting and the per-domain commit/abort
   counts — so every algorithm gets identical observability for free. *)

module Tev = Tm_trace.Trace_event
module Trace = Stm_core.Trace
module Chaos = Stm_core.Chaos
module Tel = Stm_core.Tel
module Blame = Stm_core.Blame

type 'a tvar = 'a Stm_core.tvar

exception Retry = Stm_core.Retry

let tvar = Stm_core.tvar

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

  let describe = function
    | Tl2 ->
        "TL2: global version clock, per-tvar versioned locks, commit-time \
         validation (progressive)"
    | Global_lock ->
        "global-lock: one serializer lock per transaction, no aborts, no \
         parallelism (blocking)"
    | Dstm ->
        "DSTM: revocable ownership records with abort-others stealing \
         (obstruction-free)"
    | Norec ->
        "NOrec: value-based validation under a single sequence lock \
         (commit-serialized)"

  (* Which Tel phases each core can emit — the per-algorithm phase
     mapping that keeps telemetry histogram labels truthful.  Begin /
     Read / Commit / Abort are universal (Begin, Commit and Abort come
     from the facade's retry loop); the commit-internal phases differ:
     the global-lock serializer validates nothing, NOrec and DSTM
     acquire no per-location locks. *)
  let tel_phases = function
    | Tl2 ->
        [
          Tel.Begin;
          Tel.Read;
          Tel.Lock;
          Tel.Validate;
          Tel.Publish;
          Tel.Commit;
          Tel.Abort;
        ]
    | Global_lock ->
        [ Tel.Begin; Tel.Read; Tel.Lock; Tel.Publish; Tel.Commit; Tel.Abort ]
    | Dstm | Norec ->
        [
          Tel.Begin; Tel.Read; Tel.Validate; Tel.Publish; Tel.Commit; Tel.Abort;
        ]

  (* Which Chaos points each core fires (same truthfulness contract).
     Notably: global-lock fires [Read] only after the serializer is
     held (an in-transaction crash deterministically strands it) and
     fires [Lock_acquire] while holding nothing (so a starving peer's
     op clock keeps ticking); NOrec never fires [Lock_acquire]. *)
  let chaos_points = function
    | Tl2 | Dstm ->
        [
          Chaos.Read;
          Chaos.Validate;
          Chaos.Lock_acquire;
          Chaos.Pre_commit;
          Chaos.Post_commit;
        ]
    | Global_lock ->
        [ Chaos.Read; Chaos.Lock_acquire; Chaos.Pre_commit; Chaos.Post_commit ]
    | Norec ->
        [ Chaos.Read; Chaos.Validate; Chaos.Pre_commit; Chaos.Post_commit ]

  (* Which Blame causes each core can emit (same truthfulness
     contract).  The absences are structural: only the stealing DSTM
     core can emit [Stolen]; the serialized cores convert every
     conflict into spin-budget exhaustion behind their single lock;
     NOrec additionally revalidates by value ([Validation]); TL2 is
     the only core with per-location read/lock conflicts. *)
  let blame_causes = function
    | Tl2 -> [ Blame.Read_conflict; Blame.Lock_busy; Blame.Validation ]
    | Global_lock -> [ Blame.Wait_budget ]
    | Dstm -> [ Blame.Validation; Blame.Stolen ]
    | Norec -> [ Blame.Validation; Blame.Wait_budget ]
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
   the backoff generator and the counts.  An attempt allocates nothing
   here for the cores that reuse a per-domain buffer (TL2, global-lock,
   NOrec): their pair is built once and [begin_] hands back the same
   buffer.  DSTM allocates a fresh transaction per attempt (its locators
   need a fresh status cell), so its pair is packed anew each attempt. *)
type slot = {
  mutable cur : Stm_core.packed option;
  cores : Stm_core.packed option array;  (* by [algo_index] *)
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
  | Some (Stm_core.P ((module C), t)) -> C.read t tv
  | None ->
      let (module C) = Atomic.get selected in
      C.direct_read tv

let write (type a) (tv : a tvar) (x : a) : unit =
  match (Domain.DLS.get slot).cur with
  | Some (Stm_core.P ((module C), t)) -> C.write t tv x
  | None -> invalid_arg "Stm.write outside a transaction"

let retry () = raise Retry

let backoff s attempts =
  let bound = 1 lsl min attempts 10 in
  let spins = 1 + ((s.prng * 1103515245) + 12345) land 0x3FFFFFFF in
  s.prng <- spins;
  let n_spins = spins mod bound in
  if Atomic.get Trace.tracing then
    Trace.emit Tev.Backoff "wait" Tev.Instant
      [ ("attempt", Tev.Int attempts); ("spins", Tev.Int n_spins) ];
  for _ = 1 to n_spins do
    Domain.cpu_relax ()
  done

(* Begin an attempt under algorithm [a]: make its core's transaction the
   slot's live one.  On the core's first use on this domain the pair is
   built around a transaction that never runs: a buffer-reusing core
   hands the same buffer to the next [begin_], so the pair is reused
   from then on; a core that allocates per attempt is packed anew and
   the unused transaction stays empty. *)
let rec begin_attempt s a =
  let i = algo_index a in
  match s.cores.(i) with
  | Some (Stm_core.P ((module C), t)) as pair ->
      let t' = C.begin_ () in
      s.cur <- (if t' == t then pair else Some (Stm_core.P ((module C), t')))
  | None ->
      let (module C) = core_of a in
      s.cores.(i) <- Some (Stm_core.P ((module C), C.begin_ ()));
      begin_attempt s a

let end_attempt outcome =
  if Atomic.get Trace.tracing then
    Trace.emit Tev.Txn "attempt" Tev.Span_end [ ("outcome", Tev.Str outcome) ]

(* Release what the live transaction holds and leave it. *)
let abandon s =
  (match s.cur with
  | Some (Stm_core.P ((module C), t)) -> C.abort_cleanup t
  | None -> ());
  s.cur <- None

(* After an abandoned attempt: count the abort, close its span and back
   off before the next one. *)
let next_attempt s outcome backoff_n =
  s.counts.aborts <- s.counts.aborts + 1;
  end_attempt outcome;
  backoff s backoff_n

let commit_live s =
  match s.cur with
  | Some (Stm_core.P ((module C), t)) -> C.commit t
  | None -> ()

(* One attempt, and the next ones until a commit.  Every argument is
   explicit so that an attempt builds no closure; the Tel observations
   stay inline under their guard. *)
let rec attempt : type a. slot -> Algo.t -> (unit -> a) -> int -> a =
 fun s a f n ->
  if Atomic.get Trace.tracing then
    Trace.emit Tev.Txn "attempt" Tev.Span_begin [ ("attempt", Tev.Int n) ];
  let tel = Atomic.get Tel.armed in
  let tp = if tel then Atomic.get Tel.probe else Tel.null_probe in
  if tel then tp.Tel.count Tel.Begin;
  let t0 = if tel then tp.Tel.now () else 0 in
  begin_attempt s a;
  match f () with
  | result -> (
      match commit_live s with
      | () ->
          s.cur <- None;
          s.counts.commits <- s.counts.commits + 1;
          Blame.progress ();
          if tel then tp.Tel.observe Tel.Commit (tp.Tel.now () - t0);
          end_attempt "commit";
          result
      | exception Stm_core.Conflict ->
          abandon s;
          if tel then tp.Tel.observe Tel.Abort (tp.Tel.now () - t0);
          next_attempt s "conflict" n;
          attempt s a f (n + 1)
      | exception (Chaos.Crashed as e) ->
          (* A crashed commit keeps everything it holds: no cleanup, and
             the attempt span stays open — the domain is gone. *)
          s.cur <- None;
          raise e)
  | exception Stm_core.Conflict ->
      abandon s;
      if tel then tp.Tel.observe Tel.Abort (tp.Tel.now () - t0);
      next_attempt s "conflict" n;
      attempt s a f (n + 1)
  | exception Retry ->
      abandon s;
      if tel then tp.Tel.observe Tel.Abort (tp.Tel.now () - t0);
      next_attempt s "retry" (n + 2);
      attempt s a f (n + 1)
  | exception (Chaos.Crashed as e) ->
      (* Crashed in the body: same no-cleanup contract. *)
      s.cur <- None;
      end_attempt "exception";
      raise e
  | exception e ->
      abandon s;
      end_attempt "exception";
      raise e

let atomically f =
  let s = Domain.DLS.get slot in
  match s.cur with
  | Some _ -> f () (* flat nesting: join the enclosing transaction *)
  | None ->
      s.prng <- s.self;
      attempt s (Atomic.get selected_algo) f 0

let recover () =
  (* A recovery point is also where stranded observation handlers go:
     a harness that died between [install] and [uninstall] must not
     leave a chaos plan, telemetry probe or blame sink armed across
     runs.  All three uninstalls are idempotent, so recovering twice
     (or recovering after a clean teardown already disarmed them) is
     harmless. *)
  Chaos.uninstall ();
  Tel.uninstall ();
  Blame.uninstall ();
  let (module C) = Atomic.get selected in
  C.recover ()
