(* The bridge from [Stm.Obs] to the registry: event counters for the
   begin/read/commit/abort sites and nanosecond phase-latency
   histograms for the commit protocol.  The subscriber takes its own
   timestamps — bechamel's monotonic_clock stubs (CLOCK_MONOTONIC in
   nanoseconds) — so tm_stm itself stays clock-agnostic. *)

module Obs = Tm_stm.Stm.Obs

let ns_clock () = Int64.to_int (Monotonic_clock.now ())

type t = {
  begins : Instrument.counter;
  reads : Instrument.counter;
  commits : Instrument.counter;
  aborts : Instrument.counter;
  lock_ns : Instrument.histogram;
  validate_ns : Instrument.histogram;
  publish_ns : Instrument.histogram;
  commit_ns : Instrument.histogram;
  abort_ns : Instrument.histogram;
}

let register reg =
  let c name help =
    let c = Instrument.counter () in
    Registry.counter reg ~help name (fun () -> Instrument.value c);
    c
  in
  let h name help =
    let h = Instrument.histogram () in
    Registry.histogram reg ~help name (fun () -> Instrument.hist_snapshot h);
    h
  in
  {
    begins =
      c "tm_stm_begins_total" "Transaction attempts started (one per retry)";
    reads = c "tm_stm_reads_total" "Validated transactional reads";
    commits = c "tm_stm_commits_total" "Transaction attempts that committed";
    aborts = c "tm_stm_aborts_total" "Transaction attempts that aborted";
    lock_ns =
      h "tm_stm_lock_acquire_ns"
        "Lock acquisition latency: TL2's commit-time write-set locking, \
         the global-lock serializer, each DSTM ownership";
    validate_ns =
      h "tm_stm_validate_ns"
        "Commit-time read-set validation latency (write commits)";
    publish_ns =
      h "tm_stm_publish_ns"
        "Commit-time publish-and-release latency (write commits)";
    commit_ns =
      h "tm_stm_commit_ns" "Whole-attempt latency of committed attempts";
    abort_ns = h "tm_stm_abort_ns" "Whole-attempt latency of aborted attempts";
  }

(* A domain's open attempt: when it began, and the timed phase it is in
   since [t_phase] — [lock], [validate] or [publish], an index into the
   phase histograms, or -1 for none (an int, so that a site's stores
   need no write barrier).  A phase runs from its site to the attempt's
   next commit site of another kind — a body-time [Lock] (global-lock,
   DSTM) to its [Owned] — and an abort discards it. *)
type lane = {
  mutable t_begin : int;
  mutable phase : int;
  mutable t_phase : int;
}

let lock = 0
let validate = 1
let publish = 2

let subscriber ?(clock = ns_clock) t : Obs.subscriber =
  let phase_ns = [| t.lock_ns; t.validate_ns; t.publish_ns |] in
  let key =
    Domain.DLS.new_key (fun () -> { t_begin = 0; phase = -1; t_phase = 0 })
  in
  let close l now =
    if l.phase >= 0 then
      Instrument.observe phase_ns.(l.phase) (now - l.t_phase);
    l.phase <- -1
  in
  let enter l phase =
    let now = clock () in
    close l now;
    l.phase <- phase;
    l.t_phase <- now
  in
  let lane () = Domain.DLS.get key in
  fun site _ _ ->
    (match site with
    | Obs.Begin ->
        let l = lane () in
        Instrument.incr t.begins;
        l.phase <- -1;
        l.t_begin <- clock ()
    | Obs.Read -> Instrument.incr t.reads
    | Obs.Lock ->
        let l = lane () in
        if l.phase <> lock then enter l lock
    | Obs.Owned -> close (lane ()) (clock ())
    | Obs.Validate -> enter (lane ()) validate
    | Obs.Publish -> enter (lane ()) publish
    | Obs.Commit ->
        let l = lane () and now = clock () in
        close l now;
        Instrument.incr t.commits;
        Instrument.observe t.commit_ns (now - l.t_begin)
    | Obs.Abort (Obs.Conflicted | Obs.Retried) ->
        let l = lane () in
        l.phase <- -1;
        Instrument.incr t.aborts;
        Instrument.observe t.abort_ns (clock () - l.t_begin)
    | _ -> ());
    Obs.Proceed

let install ?clock reg =
  let t = register reg in
  (t, Obs.subscribe (subscriber ?clock t))
