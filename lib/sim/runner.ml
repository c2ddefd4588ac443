open Tm_history

type fate =
  | Healthy
  | Crash_at of int
  | Parasitic_from of int
  | Crash_after_write of int
  | Crash_mid_commit of int

type sched = Round_robin | Uniform | Quantum of int

type spec = {
  nprocs : int;
  ntvars : int;
  steps : int;
  seed : int;
  sched : sched;
  workload : Workload.t;
  workload_overrides : (Event.proc * Workload.t) list;
  fates : (Event.proc * fate) list;
}

let spec ?(ntvars = 4) ?(steps = 1000) ?(seed = 0) ?(sched = Round_robin)
    ?workload ?(workload_overrides = []) ?(fates = [])
    ~nprocs () =
  let workload =
    match workload with Some w -> w | None -> Workload.counter ~ntvars
  in
  { nprocs; ntvars; steps; seed; sched; workload; workload_overrides; fates }

type outcome = {
  history : History.t;
  commits : int array;
  aborts : int array;
  invocations : int array;
  defers : int array;
  final_defer_streak : int array;
  steps_taken : int;
  metrics : Metrics.t;
}

type mode = Normal | Parasite

(* Per-process program state. *)
type pstate = {
  prng : Prng.t;
  workload : Workload.t;
  mutable mode : mode;
  mutable body : Workload.op list;  (** remaining ops before tryC *)
  reads : Workload.Reads.t;  (** what the current attempt has read *)
  latest : Event.tvar -> Event.value;  (** [Workload.Reads.latest reads] *)
  mutable txn_index : int;  (** committed transactions so far *)
  mutable parasite_counter : int;
  mutable ok_count : int;  (** write acknowledgements received, ever *)
  mutable tryc_polls : int;  (** unanswered polls on the pending tryC *)
}

let fate_of s p =
  match List.assoc_opt p s.fates with Some f -> f | None -> Healthy

let workload_of s p =
  match List.assoc_opt p s.workload_overrides with
  | Some w -> w
  | None -> s.workload

module Tev = Tm_trace.Trace_event

let fate_label = function
  | Healthy -> "healthy"
  | Crash_at _ -> "crash-at"
  | Parasitic_from _ -> "parasitic-from"
  | Crash_after_write _ -> "crash-after-write"
  | Crash_mid_commit _ -> "crash-mid-commit"

let mode_label = function Normal -> "normal" | Parasite -> "parasite"

(* The threshold of a fate that does not apply: no tick, count or poll
   number reaches it. *)
let never = max_int
let total a = Array.fold_left ( + ) 0 a

(* The one simulation loop.  Every event is tallied into the run's
   metrics as it happens; only with [keep] is it also built and kept
   for the history. *)
let drive ~keep ?trace (entry : Tm_impl.Registry.entry) s =
  let n = s.nprocs in
  let cfg =
    Tm_impl.Tm_intf.config ~seed:s.seed ~nprocs:n ~ntvars:s.ntvars ()
  in
  let tm = Tm_impl.Registry.instance entry cfg in
  let master = Prng.create s.seed in
  let ps =
    Array.init (n + 1) (fun p ->
        let reads = Workload.Reads.create ~ntvars:s.ntvars in
        {
          prng = Prng.split master;
          workload = workload_of s p;
          mode = Normal;
          body = [];
          reads;
          latest = Workload.Reads.latest reads;
          txn_index = 0;
          parasite_counter = 0;
          ok_count = 0;
          tryc_polls = 0;
        })
  in
  for p = 1 to n do
    ps.(p).body <- ps.(p).workload.Workload.body ps.(p).prng 0
  done;
  (* Each process's fate, read once: the tick from which it is crashed or
     parasitic, and the write acknowledgements or unanswered tryC polls
     after which it crashes. *)
  let crash_tick = Array.make (n + 1) never in
  let parasitic_tick = Array.make (n + 1) never in
  let crash_after_oks = Array.make (n + 1) never in
  let crash_after_polls = Array.make (n + 1) never in
  for p = 1 to n do
    match fate_of s p with
    | Healthy -> ()
    | Crash_at t -> crash_tick.(p) <- t
    | Parasitic_from t -> parasitic_tick.(p) <- t
    | Crash_after_write k -> crash_after_oks.(p) <- k
    | Crash_mid_commit k -> crash_after_polls.(p) <- k
  done;
  (* The run's invariant events, built once and shared by every
     occurrence: only read values and writes are allocated per event.
     They are built here, not in [spec]: a sweep builds its specs by the
     hundred, up front. *)
  let per_proc f = Array.init (n + 1) f in
  let parasite_workload = Workload.write_only ~ntvars:s.ntvars ~writes:2 in
  let reads = Array.init s.ntvars (fun x -> Event.Read x) in
  let inv_read =
    per_proc (fun p -> Array.map (fun r -> Event.Inv (p, r)) reads)
  in
  let inv_tryc = per_proc (fun p -> Event.Inv (p, Event.Try_commit)) in
  let responses = Event.responses ~nprocs:n ~values:0 in
  let in_range x = x >= 0 && x < s.ntvars in
  let read_inv x = if in_range x then reads.(x) else Event.Read x in
  let inv_event p (inv : Event.invocation) =
    match inv with
    | Event.Read x when in_range x -> inv_read.(p).(x)
    | Event.Try_commit -> inv_tryc.(p)
    | Event.Read _ | Event.Write _ -> Event.Inv (p, inv)
  in
  let commits = Array.make (n + 1) 0 in
  let aborts = Array.make (n + 1) 0 in
  let invocations = Array.make (n + 1) 0 in
  let defers = Array.make (n + 1) 0 in
  let streak = Array.make (n + 1) 0 in
  let sched_prng = Prng.split master in
  (* At most one event per step: the last quarter of the events fits in
     [steps / 4] ring slots. *)
  let tally = Metrics.tally ~nprocs:n ~capacity:(max 1 (s.steps / 4)) in
  (* The history, latest event first.  The trace's clock is the number of
     history events recorded so far — the same deterministic event-count
     clock Metrics uses for latencies.  An event emitted with [ts = !nev]
     is simultaneous with the history event about to be recorded at that
     index. *)
  let rev_events = ref [] in
  let nev = ref 0 in
  let record e =
    rev_events := e :: !rev_events;
    incr nev
  in
  let record_inv p inv =
    Metrics.tally_invocation tally p inv;
    if keep then record (inv_event p inv)
  in
  let record_res p resp =
    Metrics.tally_response tally p resp;
    if keep then record (Event.response responses p resp)
  in
  let tracing = Option.is_some trace in
  let emit_tr e =
    match trace with Some sink -> sink.Tm_trace.Sink.emit e | None -> ()
  in
  let txn_open = Array.make (n + 1) false in
  let tryc_open = Array.make (n + 1) false in
  let crash_noted = Array.make (n + 1) false in

  let dyn_crashed = Array.make (n + 1) false in
  let crash_landed = ref false in
  let crash_now p =
    dyn_crashed.(p) <- true;
    crash_landed := true
  in
  let crashed tick p = dyn_crashed.(p) || tick >= crash_tick.(p) in

  (* Start a fresh transaction body (after a commit or an abort, or when a
     parasite exhausts its current run of operations). *)
  let fresh_body (st : pstate) =
    (match st.mode with
    | Parasite ->
        st.parasite_counter <- st.parasite_counter + 1;
        st.body <-
          parasite_workload.Workload.body st.prng st.parasite_counter
    | Normal -> st.body <- st.workload.Workload.body st.prng st.txn_index);
    Workload.Reads.next_attempt st.reads
  in

  let handle_response p (st : pstate) (inv : Event.invocation option) resp =
    (* Close trace spans before recording the response, so their end
       timestamp is the index of the [Committed]/[Aborted] event itself. *)
    (if tracing then
       match (resp : Event.response) with
       | Event.Committed | Event.Aborted ->
           let outcome =
             if resp = Event.Committed then "commit" else "abort"
           in
           if tryc_open.(p) then begin
             tryc_open.(p) <- false;
             emit_tr
               (Tev.span_end ~ts:!nev ~tid:p Tev.Txn "tryC"
                  [ ("outcome", Tev.Str outcome) ])
           end;
           if txn_open.(p) then begin
             txn_open.(p) <- false;
             emit_tr
               (Tev.span_end ~ts:!nev ~tid:p Tev.Txn "txn"
                  [ ("outcome", Tev.Str outcome) ])
           end
       | Event.Value _ | Event.Ok_written -> ());
    record_res p resp;
    match (resp : Event.response) with
    | Event.Value v -> (
        match inv with
        | Some (Event.Read x) -> Workload.Reads.record st.reads x v
        | Some (Event.Write _ | Event.Try_commit) | None -> ())
    | Event.Ok_written ->
        st.ok_count <- st.ok_count + 1;
        if st.ok_count >= crash_after_oks.(p) then crash_now p
    | Event.Committed ->
        commits.(p) <- commits.(p) + 1;
        st.txn_index <- st.txn_index + 1;
        fresh_body st
    | Event.Aborted ->
        aborts.(p) <- aborts.(p) + 1;
        fresh_body st
  in

  (* Emit the next invocation of p's program. *)
  let emit p (st : pstate) =
    let inv =
      match st.body with
      | Workload.W_read x :: rest ->
          st.body <- rest;
          read_inv x
      | Workload.W_write (x, f) :: rest ->
          st.body <- rest;
          Event.Write (x, f st.latest)
      | [] -> (
          match st.mode with
          | Normal -> Event.Try_commit
          | Parasite ->
              (* Parasites never commit: refill and recurse once (the
                 parasite workload always produces at least one op). *)
              fresh_body st;
              (match st.body with
              | Workload.W_read x :: rest ->
                  st.body <- rest;
                  read_inv x
              | Workload.W_write (x, f) :: rest ->
                  st.body <- rest;
                  Event.Write (x, f st.latest)
              | [] -> invalid_arg "parasite workload produced an empty body"))
    in
    invocations.(p) <- invocations.(p) + 1;
    if tracing then begin
      if not txn_open.(p) then begin
        txn_open.(p) <- true;
        emit_tr
          (Tev.span_begin ~ts:!nev ~tid:p Tev.Txn "txn"
             [
               ("index", Tev.Int st.txn_index);
               ("mode", Tev.Str (mode_label st.mode));
             ])
      end;
      if inv = Event.Try_commit && not tryc_open.(p) then begin
        tryc_open.(p) <- true;
        emit_tr (Tev.span_begin ~ts:!nev ~tid:p Tev.Txn "tryC" [])
      end
    end;
    record_inv p inv;
    tm.Tm_impl.Tm_intf.invoke p inv
  in

  (* The processes not crashed at the current tick, in increasing order.
     Rebuilt only when a [Crash_at] tick of a live process passes
     ([next_crash]) or a crash lands mid-run ([crash_landed]); the first
     tick always builds it. *)
  let live = Array.make n 0 in
  let nlive = ref 0 in
  let next_crash = ref 0 in
  let rebuild tick =
    nlive := 0;
    next_crash := never;
    for p = 1 to n do
      if not (crashed tick p) then begin
        live.(!nlive) <- p;
        incr nlive;
        next_crash := min !next_crash crash_tick.(p)
      end
    done;
    crash_landed := false
  in

  let rr = ref 0 in
  let quantum_left = ref 0 in
  (* Process 0 is never a holder: the first choice finds no quantum
     left. *)
  let quantum_proc = ref 0 in
  let next_rr () =
    let p = live.(!rr mod !nlive) in
    incr rr;
    p
  in
  let choose tick =
    match s.sched with
    | Round_robin -> next_rr ()
    | Uniform -> live.(Prng.int sched_prng !nlive)
    | Quantum q ->
        if !quantum_left > 0 && not (crashed tick !quantum_proc) then begin
          decr quantum_left;
          !quantum_proc
        end
        else begin
          let p = next_rr () in
          quantum_proc := p;
          quantum_left := q - 1;
          p
        end
  in

  (* Record faults as trace instants the first time they are observable:
     a crashed process gets a [Fault] instant labelled with its fate. *)
  let note_crashes tick =
    for p = 1 to n do
      if (not crash_noted.(p)) && crashed tick p then begin
        crash_noted.(p) <- true;
        emit_tr
          (Tev.instant ~ts:!nev ~tid:p Tev.Fault "crash"
             [ ("fate", Tev.Str (fate_label (fate_of s p))) ])
      end
    done
  in

  let steps_taken = ref 0 in
  (try
     for tick = 0 to s.steps - 1 do
       (* Crashes become observable only where the live set changes. *)
       if !crash_landed || tick >= !next_crash then begin
         rebuild tick;
         if tracing then note_crashes tick
       end;
       if !nlive = 0 then raise Exit;
       let p = choose tick in
       incr steps_taken;
       let st = ps.(p) in
       (* A process turning parasitic abandons its plan to commit. *)
       if st.mode = Normal && tick >= parasitic_tick.(p) then begin
         st.mode <- Parasite;
         if tracing then
           emit_tr (Tev.instant ~ts:!nev ~tid:p Tev.Fault "parasitic" []);
         if st.body = [] then fresh_body st
       end;
       let pending = tm.Tm_impl.Tm_intf.pending p in
       let in_tryc =
         match pending with
         | Some Event.Try_commit -> true
         | Some (Event.Read _ | Event.Write _) | None -> false
       in
       (* Crash inside the commit procedure once the pending tryC has
          gone unanswered the configured number of times. *)
       if in_tryc && st.tryc_polls >= crash_after_polls.(p) then crash_now p
       else
         match pending with
         | Some _ -> (
             match tm.Tm_impl.Tm_intf.poll p with
             | Some resp ->
                 streak.(p) <- 0;
                 st.tryc_polls <- 0;
                 handle_response p st pending resp
             | None ->
                 defers.(p) <- defers.(p) + 1;
                 streak.(p) <- streak.(p) + 1;
                 if tracing then
                   emit_tr
                     (Tev.counter ~ts:!nev ~tid:p Tev.Sched
                        (Fmt.str "defers-p%d" p)
                        defers.(p));
                 if in_tryc then st.tryc_polls <- st.tryc_polls + 1)
         | None -> emit p st
     done
   with Exit -> ());
  if tracing then note_crashes s.steps;
  {
    history = History.of_rev_events !rev_events;
    commits;
    aborts;
    invocations;
    defers;
    final_defer_streak = streak;
    steps_taken = !steps_taken;
    metrics =
      Metrics.of_tally tally ~defers:(total defers) ~steps:!steps_taken;
  }

let run ?trace entry s = drive ~keep:true ?trace entry s
let metrics entry s = (drive ~keep:false entry s).metrics

let commit_total o = total o.commits
let abort_total o = total o.aborts

let throughput o =
  if o.steps_taken = 0 then 0.0
  else float_of_int (commit_total o) /. float_of_int o.steps_taken

let blocked_procs o =
  List.filteri (fun i _ -> i > 0) (Array.to_list o.final_defer_streak)
  |> List.mapi (fun i streak -> (i + 1, streak))
  |> List.filter_map (fun (p, streak) ->
         if streak > 50 then Some p else None)

let pp_summary ppf o =
  let per name a =
    Fmt.pf ppf "%s: %a (total %d)@," name
      Fmt.(list ~sep:(any " ") int)
      (List.tl (Array.to_list a))
      (total a)
  in
  Fmt.pf ppf "@[<v>";
  per "commits" o.commits;
  per "aborts " o.aborts;
  per "defers " o.defers;
  Fmt.pf ppf "steps: %d, throughput: %.4f commits/step@]" o.steps_taken
    (throughput o)
