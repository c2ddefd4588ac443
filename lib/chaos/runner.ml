module Stm = Tm_stm.Stm
module Obs = Stm.Obs
module Pc = Tm_liveness.Process_class
module Emp = Tm_liveness.Empirical
module Tev = Tm_trace.Trace_event
module Tel = Tm_telemetry

type sample = {
  ops : int;
  trycs : int;
  commits : int;
  aborts : int;
  causes : (Obs.cause * int) list;
}

(* Per-domain monotone counters are single-writer instruments (one
   shard each) that the session registry reads as
   [tm_chaos_*_total{domain=...}]: the watchdog, the liveness gauge and
   any --telemetry export all read the same cells.  Aborts are derived:
   every transaction body start is an attempt, every [atomically] return
   a commit, and each attempt either commits or aborts. *)
type session = {
  ses_plan : Plan.t;
  ses_registry : Tel.Registry.t;
  ses_liveness : Tel.Liveness_gauge.t;
  ses_blame : Tel.Blame_graph.t option;
  ses_ops : Tel.Instrument.counter array;
  ses_attempts : Tel.Instrument.counter array;
  ses_trycs : Tel.Instrument.counter array;
  ses_commits : Tel.Instrument.counter array;
  ses_causes : (Obs.cause * Tel.Instrument.counter) list array;
      (* per domain, the conflicts charged to it by cause — those it
         reported, and the steals that aborted it; private to the
         report, not in the registry *)
  ses_crashed : bool Atomic.t array;  (* the worker died on [Crashed] *)
  ses_turned : bool Atomic.t array;  (* see [worker] *)
  ses_latency : Tel.Latency_recorder.t option;
}

let session_liveness ses = ses.ses_liveness
let session_blame ses = ses.ses_blame
let session_latency ses = ses.ses_latency

let session_crashed ses d = Atomic.get ses.ses_crashed.(d)

let sample ses d =
  let v a = Tel.Instrument.value a.(d) in
  let attempts = v ses.ses_attempts in
  let commits = v ses.ses_commits in
  {
    ops = v ses.ses_ops;
    trycs = v ses.ses_trycs;
    commits;
    aborts = max 0 (attempts - commits);
    causes =
      List.map (fun (c, n) -> (c, Tel.Instrument.value n)) ses.ses_causes.(d);
  }

let samples ses = Array.init ses.ses_plan.Plan.domains (sample ses)

type worker = { next : unit -> unit; body : (unit -> unit) -> unit }
type workload = Plan.t -> int -> worker

(* Every transaction writes t-variable 0 (plus one other), so every pair
   of domains conflicts: a crashed lock holder necessarily strands the
   whole peer set. *)
let hot_set ~tvars (_ : Plan.t) =
  let shared = Array.init (max 2 tvars) (fun _ -> Stm.tvar 0) in
  let n = Array.length shared in
  fun d ->
    let st = ref (d + 1) and other = ref 1 in
    {
      next =
        (fun () ->
          let r = !st * 48271 mod 0x7FFFFFFF in
          st := r;
          other := 1 + (r mod (n - 1)));
      body =
        (fun takeover ->
          let v0 = Stm.read shared.(0) in
          let vo = Stm.read shared.(!other) in
          takeover ();
          Stm.write shared.(0) (v0 + 1);
          Stm.write shared.(!other) (vo + 1));
    }

type report = {
  rep_domain : int;
  rep_fault : Plan.fault;
  rep_expected : Pc.cls;
  rep_observed : Pc.cls;
  rep_first : sample;
  rep_last : sample;
  rep_crashed : bool;
}

let report_ok r = Pc.equal_cls r.rep_observed r.rep_expected

type outcome = {
  o_plan : Plan.t;
  o_reports : report list;
  o_ok : bool;
  o_events : Tev.t list;
  o_blame : Tel.Blame_graph.t option;
}

(* The handler runs on every worker domain; its per-domain identity
   (which fault, which counters) travels in DLS, set by the worker
   before its first transaction.  Domains without a registered identity
   (the watchdog, unrelated code in the same process) see only
   [Proceed]. *)
type dstate = {
  ds_fault : Plan.fault;
  ds_ops : Tel.Instrument.counter;
  ds_injected : Tel.Instrument.counter;
  ds_domain : int;
  ds_causes : (Obs.cause * Tel.Instrument.counter) list array;
}

let dls : dstate option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let fault_handler site a _ =
  match (site, !(Domain.DLS.get dls)) with
  | (Obs.Read | Obs.Lock | Obs.Validate | Obs.Publish | Obs.Commit), Some st ->
      (* The domain's operation clock: one tick per fault site reached,
         the coordinate system of every planned fault instant.  The
         counter is single-writer (this domain), so read-then-incr is
         the old fetch_and_add. *)
      let n = Tel.Instrument.value st.ds_ops in
      Tel.Instrument.incr st.ds_ops;
      let action =
        match (st.ds_fault, site) with
        | Plan.Crash { at_op; holding_locks = true }, Obs.Publish
        | Plan.Crash { at_op; holding_locks = false }, Obs.Read ->
            if n >= at_op then Obs.Crash else Obs.Proceed
        | Plan.Stall { period; spins }, _ ->
            if n mod period = 0 then Obs.Stall spins else Obs.Proceed
        | Plan.Abort_storm { from_op; until_op }, Obs.Read ->
            if n >= from_op && n < until_op then Obs.Abort else Obs.Proceed
        | _ -> Obs.Proceed
      in
      (match action with
      | Obs.Proceed -> ()
      | Obs.Abort | Obs.Stall _ | Obs.Crash ->
          Tel.Instrument.incr st.ds_injected);
      action
  | Obs.Conflict c, Some st ->
      (* A steal is reported by the stealer, but the abort is its
         victim's, the slot it names; every other conflict aborts the
         domain that reports it. *)
      let d = match c with Obs.Stolen -> a | _ -> st.ds_domain in
      if d >= 0 && d < Array.length st.ds_causes then
        Tel.Instrument.incr (List.assoc c st.ds_causes.(d));
      Obs.Proceed
  | _ -> Obs.Proceed

exception Stop_worker

(* The workload's worker picks each transaction ([next]) and runs its
   body; everything else is the same for every workload.  A parasitic
   turn spins forever on [mine], a t-variable nobody writes — active
   forever, never conflicting, never reaching tryC.

   Where the parasitic takeover happens is core-dependent.  Under the
   non-blocking cores it is a fresh transaction whose read set is only
   [mine]: reads never block, so the first attempt succeeds and stays
   active forever — and the read set *must* stay private, because
   DSTM's per-read read-set revalidation and NOrec's value checks would
   abort a parasite that had read a shared t-variable some peer keeps
   writing.  Under the global-lock serializer that fresh transaction
   would instead have to win an unfair spinlock from a cold start
   against hot committers, with the facade's backoff growing on every
   failure — a race it can lose for whole observation windows.  There
   the takeover happens *inside* a winning transaction: the body calls
   its takeover point after its reads and, once past the onset, simply
   never reaches tryC — it already holds the serializer, stranding
   every peer deterministically (prior reads in the set are harmless:
   the serializer validates nothing).

   [turned] marks the parasite's turn (runner.mli, [in_effect]).  Without
   a crash gate only the takeover counts: an attempt that has not won
   the serializer yet leaves the peers committing. *)
let worker ~stop ~job ~mine ~algo ~fault ~crash_gate ~turned ~ops ~injected
    ~causes ~attempts ~trycs ~commits ~crashed ~lat d () =
  Domain.DLS.get dls :=
    Some
      {
        ds_fault = fault;
        ds_ops = ops;
        ds_injected = injected;
        ds_domain = d;
        ds_causes = causes;
      };
  (* Open-loop latency: mark before the transaction, complete after.  A
     body that dies on [Obs.Crashed] leaves its mark in place on
     purpose — the dead domain's in-flight age is the censored sample
     the recorder's open-loop quantiles keep folding in. *)
  let mark () =
    let sched = Tel.Latency_recorder.now_ns () in
    Option.iter (fun r -> Tel.Latency_recorder.mark r d ~sched) lat;
    sched
  in
  let complete sched =
    Option.iter
      (fun r ->
        Tel.Latency_recorder.complete r d ~start:sched
          ~finish:(Tel.Latency_recorder.now_ns ()))
      lat
  in
  (* Blame identity: plan slot, not raw Domain.self — unconditional
     (one DLS write per worker lifetime, nothing on the hot path). *)
  Obs.set_self d;
  let parasitic_from =
    match fault with Plan.Parasitic { from_op } -> Some from_op | _ -> None
  in
  let parasitic_now () =
    match parasitic_from with
    | Some from ->
        Option.fold ~none:true ~some:(fun open_ -> open_ ()) crash_gate
        && Tel.Instrument.value ops >= from
    | None -> false
  in
  let parasite_spin () =
    Atomic.set turned true;
    while true do
      ignore (Stm.read mine);
      if Atomic.get stop then raise Stop_worker;
      Domain.cpu_relax ()
    done
  in
  let in_body_takeover = algo = Stm.Algo.Global_lock in
  let takeover () =
    if in_body_takeover && parasitic_now () then parasite_spin ()
  in
  let stranded_turn = in_body_takeover && Option.is_some crash_gate in
  let body () =
    (* Re-run on every attempt: a permanently starving domain still
       gets to observe the stop flag. *)
    if Atomic.get stop then raise Stop_worker;
    if stranded_turn && parasitic_now () then Atomic.set turned true;
    Tel.Instrument.incr attempts;
    job.body takeover;
    Tel.Instrument.incr trycs
  in
  (try
     while not (Atomic.get stop) do
       if (not in_body_takeover) && parasitic_now () then begin
         ignore (mark ());
         Stm.atomically (fun () ->
             Tel.Instrument.incr attempts;
             parasite_spin ())
       end
       else begin
         job.next ();
         let sched = mark () in
         Stm.atomically body;
         Tel.Instrument.incr commits;
         complete sched
       end
     done
   with
  | Stop_worker -> ()
  | Obs.Crashed -> Atomic.set crashed true);
  Obs.set_self (-1);
  Domain.DLS.get dls := None

let counters_of (s : sample) =
  Emp.counters ~ops:s.ops ~trycs:s.trycs ~commits:s.commits ~aborts:s.aborts

let with_session ?(blame = false) ?(latency = false) ?registry ~workload
    (plan : Plan.t) f =
  let nd = plan.Plan.domains in
  let reg =
    match registry with Some r -> r | None -> Tel.Registry.create ()
  in
  let dom d = [ ("domain", string_of_int d) ] in
  let per name help =
    Array.init nd (fun d ->
        let c = Tel.Instrument.counter ~shards:1 () in
        Tel.Registry.counter reg ~labels:(dom d) ~help name (fun () ->
            Tel.Instrument.value c);
        c)
  in
  let ops =
    per "tm_chaos_ops_total"
      "Fault sites reached (the domain's operation clock)"
  in
  let attempts = per "tm_chaos_attempts_total" "Transaction attempts started" in
  let trycs =
    per "tm_chaos_trycs_total" "Transaction bodies that reached tryC"
  in
  let commits = per "tm_chaos_commits_total" "Transactions committed" in
  let injected =
    per "tm_chaos_injected_total" "Faults injected (non-Proceed actions)"
  in
  let crashed = Array.init nd (fun _ -> Atomic.make false) in
  Array.iteri
    (fun d c ->
      Tel.Registry.gauge reg ~labels:(dom d)
        ~help:"1 after the worker died on Stm.Obs.Crashed" "tm_chaos_crashed"
        (fun () -> Bool.to_int (Atomic.get c)))
    crashed;
  let causes =
    Array.init nd (fun _ ->
        List.map (fun c -> (c, Tel.Instrument.counter ~shards:1 ())) Obs.causes)
  in
  let turned = Array.init nd (fun _ -> Atomic.make false) in
  let sources =
    Array.init nd (fun d ->
        Tel.Liveness_gauge.source
          ~ops:(fun () -> Tel.Instrument.value ops.(d))
          ~trycs:(fun () -> Tel.Instrument.value trycs.(d))
          ~commits:(fun () -> Tel.Instrument.value commits.(d))
          ~aborts:(fun () ->
            max 0
              (Tel.Instrument.value attempts.(d)
              - Tel.Instrument.value commits.(d))))
  in
  let liveness = Tel.Liveness_gauge.create reg ~sources in
  let blame_graph =
    if blame then Some (Tel.Blame_graph.create reg ~domains:nd) else None
  in
  (* Workers are unthrottled, so the coordinated-omission interval is
     the transaction time scale, not a wall-clock arrival rate. *)
  let lat =
    if latency then
      Some
        (Tel.Latency_recorder.create ~registry:reg ~metric:"tm_chaos_lat"
           ~interval_ns:50_000 ~domains:nd ())
    else None
  in
  let ses =
    {
      ses_plan = plan;
      ses_registry = reg;
      ses_liveness = liveness;
      ses_blame = blame_graph;
      ses_ops = ops;
      ses_attempts = attempts;
      ses_trycs = trycs;
      ses_commits = commits;
      ses_causes = causes;
      ses_crashed = crashed;
      ses_turned = turned;
      ses_latency = lat;
    }
  in
  (* In scenarios that combine a crasher with a parasite, the parasite's
     onset waits for the crash to have landed: the expectations read the
     faults as a causal sequence (crash first, then a parasite appears
     in the wreckage), and per-domain op clocks cannot order the onsets
     — under the serializer the eventual winner's clock outruns a
     starving peer's arbitrarily.  With no crasher in the plan the gate
     is always open. *)
  let crash_gate =
    Array.to_list plan.Plan.faults
    |> List.mapi (fun d f -> (d, f))
    |> List.find_map (fun (d, f) ->
           match f with
           | Plan.Crash _ -> Some (fun () -> Atomic.get crashed.(d))
           | _ -> None)
  in
  (* Select the plan's core before the workload creates its t-variables
     (a t-variable belongs to the algorithm that uses it) and restore
     the previous selection only after the workers are joined. *)
  let prev_algo = Stm.algo () in
  Stm.set_algo plan.Plan.algo;
  let subs = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Obs.unsubscribe !subs;
      (* Workers are joined by now: release core-global locks stranded
         by crashed domains (the serializer, the sequence lock), so a
         crash run cannot starve every later run of the same core in
         this process.  Must happen while the plan's core is still the
         selected one. *)
      Stm.recover ();
      Stm.set_algo prev_algo)
    (fun () ->
      let job = workload plan in
      let mine = Array.init nd (fun _ -> Stm.tvar 0) in
      let stop = Atomic.make false in
      subs :=
        Obs.subscribe fault_handler
        :: Option.fold ~none:[]
             ~some:(fun g -> [ Obs.subscribe (Tel.Blame_graph.subscriber g) ])
             blame_graph;
      let ds =
        List.init nd (fun d ->
            Domain.spawn
              (worker ~stop ~job:(job d) ~mine:mine.(d) ~algo:plan.Plan.algo
                 ~fault:plan.Plan.faults.(d) ~crash_gate ~turned:turned.(d)
                 ~ops:ops.(d)
                 ~injected:injected.(d) ~causes
                 ~attempts:attempts.(d)
                 ~trycs:trycs.(d) ~commits:commits.(d) ~crashed:crashed.(d)
                 ~lat d))
      in
      let finish () =
        Atomic.set stop true;
        List.iter Domain.join ds
      in
      match f ses with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e)

(* The open condition for domain [d] (runner.mli, [in_effect]). *)
let fault_in_effect ses d =
  let f = ses.ses_plan.Plan.faults.(d) in
  Tel.Instrument.value ses.ses_ops.(d) >= Plan.fault_instant f
  &&
  match f with
  | Plan.Crash _ -> session_crashed ses d
  | Plan.Parasitic _ -> Atomic.get ses.ses_turned.(d)
  | _ -> true

let all_domains ses = List.init ses.ses_plan.Plan.domains Fun.id
let in_effect ses = List.for_all (fault_in_effect ses) (all_domains ses)

(* K and the backing rule of [short_of_close] (runner.mli gives their
   reasons). *)
let window_sites = Tel.Blame_graph.min_events
let backing_sites = 16 * window_sites
let hang_cap = 10.0

exception Inconclusive of string

(* Polls [short], the domains still short of a condition, until it
   names none.  Past [deadline] the run is inconclusive, never a
   verdict. *)
let rec await ~deadline ~what short =
  match short () with
  | [] -> ()
  | ds when Unix.gettimeofday () > deadline ->
      raise
        (Inconclusive
           (Fmt.str
              "the chaos window did not %s within %g s: domains %a short" what
              hang_cap
              Fmt.(list ~sep:comma int)
              ds))
  | _ ->
      Unix.sleepf 0.001;
      await ~deadline ~what short

(* Whether domain [d] is short of the window's close: alive and below
   [window_sites] of its own, or reading starving without backing and
   below [backing_sites]. *)
let short_of_close ses ~first ~last d =
  let run = last.(d).ops - first.(d).ops in
  let committed e = last.(e).commits > first.(e).commits in
  let backed () =
    (not (List.exists (fun e -> e <> d && committed e) (all_domains ses)))
    &&
    match ses.ses_blame with
    | None -> true
    | Some g -> Tel.Blame_graph.victim_total g d >= Tel.Blame_graph.min_events
  in
  (not (session_crashed ses d))
  && (run < window_sites
     || run < backing_sites
        && Pc.equal_cls Pc.Starving
             (Emp.classify_counters ~first:(counters_of first.(d))
                ~last:(counters_of last.(d)))
        && not (backed ()))

let run ?blame ?latency ?registry ?on_sample ~workload (plan : Plan.t) =
  let nd = plan.Plan.domains in
  let scrape ses ts =
    match on_sample with
    | Some f -> f (Tel.Registry.scrape ses.ses_registry ~ts)
    | None -> ()
  in
  let first, last, observed, ses =
    with_session ?blame ?latency ?registry ~workload plan (fun ses ->
        let deadline = Unix.gettimeofday () +. hang_cap in
        let all = all_domains ses in
        await ~deadline ~what:"open" (fun () ->
            List.filter (fun d -> not (fault_in_effect ses d)) all);
        (* No commit made before the faults took effect may be counted
           inside the window (runner.mli). *)
        let started = Array.map Tel.Instrument.value ses.ses_attempts in
        await ~deadline ~what:"open" (fun () ->
            List.filter
              (fun d ->
                not
                  (session_crashed ses d
                  || Atomic.get ses.ses_turned.(d)
                  || Tel.Instrument.value ses.ses_attempts.(d) > started.(d)))
              all);
        let first = samples ses in
        (* Attribute only what the window sees: contention before the
           faults were in effect would dilute the dominator's share. *)
        Option.iter Tel.Blame_graph.mark ses.ses_blame;
        scrape ses 0;
        let last = ref first in
        await ~deadline ~what:"close" (fun () ->
            last := samples ses;
            List.filter (short_of_close ses ~first ~last:!last) all);
        (* One classification per domain: the verdicts reported
           below, which the final scrape's liveness gauge reads. *)
        let observed =
          Array.init nd (fun d ->
              Emp.classify_counters ~first:(counters_of first.(d))
                ~last:(counters_of !last.(d)))
        in
        Tel.Liveness_gauge.set ses.ses_liveness observed;
        scrape ses 1;
        (first, !last, observed, ses))
  in
  (* [with_session] has joined the workers, so the crashed flags are
     final. *)
  let reports =
    List.init nd (fun d ->
        {
          rep_domain = d;
          rep_fault = plan.Plan.faults.(d);
          rep_expected = plan.Plan.expected.(d);
          rep_observed = observed.(d);
          rep_first = first.(d);
          rep_last = last.(d);
          rep_crashed = session_crashed ses d;
        })
  in
  let h = Plan.horizon plan in
  let verdicts =
    List.map
      (fun r ->
        Tev.instant ~ts:h ~tid:r.rep_domain Tev.Monitor "chaos-verdict"
          [
            ("class", Tev.Str (Pc.cls_label r.rep_observed));
            ("expected", Tev.Str (Pc.cls_label r.rep_expected));
            ("algo", Tev.Str (Stm.Algo.name plan.Plan.algo));
          ])
      reports
  in
  (* With blame armed, the trace additionally carries the graph's
     stable classification — one evidence instant per domain, each
     repeating the graph-level shape so the analysis rule needs no
     cross-event join.  Like the verdicts (and unlike raw edge
     weights), these are the empirically stable reduction the CI
     byte-determinism gate compares. *)
  let blame_events =
    match ses.ses_blame with
    | None -> []
    | Some g ->
        let shape, evidence = Tel.Blame_graph.classify g ~classes:observed in
        List.init nd (fun d ->
            Tev.instant ~ts:h ~tid:d Tev.Monitor "blame-evidence"
              [
                ( "evidence",
                  Tev.Str (Tel.Blame_graph.evidence_label evidence.(d)) );
                ("shape", Tev.Str (Tel.Blame_graph.shape_label shape));
                ("algo", Tev.Str (Stm.Algo.name plan.Plan.algo));
              ])
  in
  {
    o_plan = plan;
    o_reports = reports;
    o_ok = List.for_all report_ok reports;
    o_events = Plan.trace_events plan @ verdicts @ blame_events;
    o_blame = ses.ses_blame;
  }

let delta r f = f r.rep_last - f r.rep_first

let pp_report ppf r =
  Fmt.pf ppf
    "domain %d: %-22s expect %-11s observed %-11s %-8s d_ops %d, d_tryC %d, \
     d_commits %d, d_aborts %d (%a)%s"
    r.rep_domain
    (Plan.fault_label r.rep_fault)
    (Pc.cls_label r.rep_expected)
    (Pc.cls_label r.rep_observed)
    (if report_ok r then "ok" else "MISMATCH")
    (delta r (fun s -> s.ops))
    (delta r (fun s -> s.trycs))
    (delta r (fun s -> s.commits))
    (delta r (fun s -> s.aborts))
    Fmt.(list ~sep:(any " ") (pair ~sep:(any " ") string int))
    (List.map2
       (fun (c, last) (_, first) -> (Obs.cause_label c, last - first))
       r.rep_last.causes r.rep_first.causes)
    (if r.rep_crashed then " [crashed]" else "")

let pp_table ppf o =
  Fmt.pf ppf "@[<v>chaos %s algo=%s seed=%d domains=%d@,"
    o.o_plan.Plan.scenario
    (Stm.Algo.name o.o_plan.Plan.algo)
    o.o_plan.Plan.seed o.o_plan.Plan.domains;
  List.iter (fun r -> Fmt.pf ppf "%a@," pp_report r) o.o_reports;
  Fmt.pf ppf "verdict: %s@]"
    (if o.o_ok then "ok (observed classes match the scenario)"
     else "MISMATCH (observed classes contradict the scenario)")

let to_json o =
  let json = Tm_trace.Export.json_string in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Fmt.str
       "{\"scenario\":%s,\"algo\":%s,\"seed\":%d,\"domains\":%d,\"ok\":%b,\"verdicts\":["
       (json o.o_plan.Plan.scenario)
       (json (Stm.Algo.name o.o_plan.Plan.algo))
       o.o_plan.Plan.seed o.o_plan.Plan.domains o.o_ok);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Fmt.str
           "{\"domain\":%d,\"fault\":%s,\"expected\":%s,\"observed\":%s,\"ok\":%b,\"crashed\":%b,\"window_ops\":%d,\"window_trycs\":%d,\"window_commits\":%d,\"window_aborts\":%d}"
           r.rep_domain
           (json (Plan.fault_label r.rep_fault))
           (json (Pc.cls_label r.rep_expected))
           (json (Pc.cls_label r.rep_observed))
           (report_ok r) r.rep_crashed
           (delta r (fun s -> s.ops))
           (delta r (fun s -> s.trycs))
           (delta r (fun s -> s.commits))
           (delta r (fun s -> s.aborts))))
    o.o_reports;
  Buffer.add_string b "]}";
  Buffer.contents b
