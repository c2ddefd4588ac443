(* What observing the STM costs: tracing (P5), the lint engine on a
   traced run (P6), fault sites (P7), telemetry (P8) and blame (P10).
   P5, P7, P8 and P10 time the same increments through
   [Harness.seam_cost]; each supplies what it arms and what it counts. *)

open Tm_history
open Harness

(* ------------------------------------------------------------------ *)
(* P5: tracing overhead — the flag-off hot path must cost nothing
   measurable, the null sink must stay within noise, and the ring sink
   must stay bounded (drop, not grow).  Wall-clock timings use a
   min-of-3-trials protocol to shave scheduler noise; see
   EXPERIMENTS.md §P5. *)

let p5_trace_overhead () =
  section "P5" "tracing overhead: off vs null sink vs ring sink";
  let module Trace = Stm.Trace in
  let s =
    seam_cost
      ~count:(fun work ->
        Trace.start_null ();
        work ();
        Trace.stop ();
        Trace.emitted ())
      ~arm:(fun () ->
        Trace.start_null ();
        Trace.stop)
  in
  (* The armed session's emissions over its 3 timed trials, read before
     the ring run below restarts the count and repopulates the
     registry. *)
  let null_emitted = Trace.emitted () and null_stored = Trace.events () in
  let ring_capacity = 4096 in
  Trace.start ~capacity:ring_capacity ();
  let t_ring = min3 (increments ()) in
  Trace.stop ();
  let ring_retained = List.length (Trace.events ()) in
  let ring_dropped = Trace.dropped () in
  let null_ns_per_event = per_event s ~events:s.counted s.t_armed in
  baseline_row s "tracing off   ";
  row s "null sink     " s.t_armed
    (Fmt.str ", %d events emitted, %.1f ns/event" null_emitted
       null_ns_per_event);
  row s "ring sink     " t_ring
    (Fmt.str ", %d retained / %d dropped" ring_retained ring_dropped);
  check "null-sink dispatch cheap per event (< 100 ns/event)" ~paper:true
    ~measured:(null_ns_per_event < 100.0);
  check "null sink counted emissions without storing them" ~paper:true
    ~measured:(null_emitted > 0 && null_stored = []);
  check "ring sink bounded: retains <= capacity and drops the rest"
    ~paper:true
    ~measured:(ring_retained <= ring_capacity && ring_dropped > 0);
  (* The simulator's recorder, for scale (informational): the collector
     allocates per event, so some slowdown is expected and fine — sim
     traces are for bounded forensic runs, not steady-state production. *)
  let entry = tm "tl2" in
  let spec =
    Runner.spec ~nprocs:3 ~ntvars:4 ~steps:2000 ~seed:1
      ~sched:Runner.Uniform ()
  in
  let t_plain = min3 (fun () -> ignore (Runner.run entry spec)) in
  let t_traced =
    min3 (fun () ->
        let col = Tm_trace.Sink.collector () in
        ignore
          (Runner.run
             ~trace:(Tm_trace.Sink.collector_sink col)
             entry spec))
  in
  Fmt.pr "  runner, 2000 steps: untraced %.4fs, traced %.4fs (%.2fx)@."
    t_plain t_traced
    (t_traced /. t_plain)

(* ------------------------------------------------------------------ *)
(* P6: the lint engine — clean corpora really lint clean, the race
   checker turns up nothing on a real contended multicore trace, and the
   analyzers are fast enough to gate CI. *)

let p6_analysis () =
  section "P6" "analysis pass: findings and lint throughput";
  let module An = Tm_analysis in
  let figure_findings =
    List.concat_map
      (fun (name, h) -> An.Engine.run_history ~subject:name h)
      Figures.all_finite
    @ List.concat_map
        (fun (name, l) -> An.Engine.run_lasso ~subject:name l)
        Figures.all_lassos
  in
  check_int "figures corpus findings" ~paper:0
    ~measured:(List.length figure_findings);
  (* A contended multicore run of the real STM, traced and linted. *)
  let n = 4 in
  let accounts = Array.init n (fun _ -> Stm.tvar 100) in
  Stm.Trace.start ~capacity:(1 lsl 18) ();
  spawn_join 4 (fun k ->
      for i = 1 to 2000 do
        let src = (i * (k + 1)) mod n and dst = (i + k) mod n in
        Stm.atomically (fun () ->
            let v = Stm.read accounts.(src) in
            Stm.write accounts.(src) (v - 1);
            Stm.write accounts.(dst) (Stm.read accounts.(dst) + 1))
      done);
  Stm.Trace.stop ();
  let events = Stm.Trace.events () in
  let truncated = Stm.Trace.dropped () > 0 in
  if truncated then
    Fmt.pr "  (ring truncated; skipping the protocol lint)@."
  else begin
    let findings, dt =
      time (fun () -> An.Engine.run_trace ~subject:"stm" events)
    in
    Fmt.pr "  linted %d trace events in %.3fs (%.0f events/s)@."
      (List.length events) dt
      (float_of_int (List.length events) /. dt);
    check_int "multicore commit-protocol findings" ~paper:0
      ~measured:(List.length findings);
    check "TL2 canonical order: every lock-order edge ascends" ~paper:true
      ~measured:
        (List.for_all (fun (a, b) -> a < b)
           (An.Trace_lint.lock_order_edges events))
  end

(* ------------------------------------------------------------------ *)
(* P7: fault-site overhead — the Stm.Obs sites must be free while
   nothing is subscribed (one relaxed Atomic.get per site, same
   contract as P5's tracing) and cheap when a no-op plan is subscribed
   (< 100 ns per fault site, P5's null-sink bound: the armed cost of
   every site a transaction delivers, over the read, lock, validate,
   publish and commit sites a plan can act on).  See EXPERIMENTS.md
   §P7. *)

let p7_chaos_overhead () =
  section "P7" "chaos hooks: disarmed vs no-op handler on the Stm hot path";
  let s =
    seam_cost
      ~count:
        (count_sites (function
          | Obs.Read | Obs.Lock | Obs.Validate | Obs.Publish | Obs.Commit ->
              true
          | _ -> false))
      ~arm:(fun () ->
        let noop = Obs.subscribe (fun _ _ _ -> Obs.Proceed) in
        fun () -> Obs.unsubscribe noop)
  in
  let sites_per_trial, faults_per_trial = s.counted in
  let armed_ns_per_event = per_event s ~events:faults_per_trial s.t_armed in
  baseline_row s "sites disarmed  ";
  row s "no-op plan      " s.t_armed
    (Fmt.str ", %d sites and %d fault sites/trial, %.1f ns/fault site"
       sites_per_trial faults_per_trial armed_ns_per_event);
  row s "uninstalled     " s.t_disarmed "";
  check "every commit fires lock/validate/pre/post points" ~paper:true
    ~measured:(faults_per_trial >= 4 * seam_iters);
  check "armed no-op dispatch cheap per event (< 100 ns/event)" ~paper:true
    ~measured:(armed_ns_per_event < 100.0);
  (* Uninstall must restore the baseline: the disarmed run after the
     armed one stays within noise of the first disarmed run. *)
  check "uninstall restores the disarmed fast path (< 1.5x)" ~paper:true
    ~measured:(s.t_disarmed /. s.t_off < 1.5)

(* ------------------------------------------------------------------ *)
(* P8: telemetry overhead — the Stm.Obs sites must cost nothing
   measurable while nothing is subscribed (one relaxed Atomic.get per
   site, the P5/P7 contract), stay under 100 ns per probe event with
   the real registry-backed probe subscribed (the armed cost of every
   site delivered, over the begin, read, lock, validate, publish,
   commit and abort sites the probe instruments), and a registry scrape
   must read instruments, not events: its cost cannot grow with the
   event volume the instruments absorbed.  See EXPERIMENTS.md §P8. *)

let p8_telemetry_overhead () =
  section "P8" "telemetry: disarmed vs armed Stm probe, scrape cost";
  (* The real thing: registry-backed counters and ns histograms, the
     monotonic clock included. *)
  let reg = Tm_telemetry.Registry.create () in
  let s =
    seam_cost
      ~count:
        (count_sites (function
          | Obs.Begin | Obs.Read | Obs.Lock | Obs.Validate | Obs.Publish
          | Obs.Commit | Obs.Abort _ ->
              true
          | _ -> false))
      ~arm:(fun () ->
        let _, probe = Tm_telemetry.Stm_probe.install reg in
        fun () -> Obs.unsubscribe probe)
  in
  let events_per_trial = snd s.counted in
  let armed_ns_per_event = per_event s ~events:events_per_trial s.t_armed in
  let disarmed_ns_per_event =
    per_event s ~events:events_per_trial s.t_disarmed
  in
  baseline_row s "probe disarmed  ";
  row s "registry probe  " s.t_armed
    (Fmt.str ", %d events/trial, %.1f ns/event" events_per_trial
       armed_ns_per_event);
  row s "uninstalled     " s.t_disarmed
    (Fmt.str ", %.1f ns/event" disarmed_ns_per_event);
  check "begin/read/commit and timed phases all fire" ~paper:true
    ~measured:(events_per_trial >= 4 * seam_iters);
  check "disarmed seam costs nothing measurable (< 100 ns/event)"
    ~paper:true
    ~measured:(disarmed_ns_per_event < 100.0);
  check "armed registry probe cheap per event (< 100 ns/event)" ~paper:true
    ~measured:(armed_ns_per_event < 100.0);
  check "uninstall restores the disarmed fast path (< 1.5x)" ~paper:true
    ~measured:(s.t_disarmed /. s.t_off < 1.5);
  (* Scrape cost is a function of the registered instruments, not of how
     many events they absorbed: scraping the registry that just took
     ~10^6 events must cost the same as scraping an identical fresh
     one. *)
  let scrapes = 2000 in
  let time_scrapes r =
    min3 (fun () ->
        for i = 1 to scrapes do
          ignore (Tm_telemetry.Registry.scrape r ~ts:i)
        done)
  in
  let fresh = Tm_telemetry.Registry.create () in
  ignore (Tm_telemetry.Stm_probe.register fresh);
  let t_fresh = time_scrapes fresh in
  let t_loaded = time_scrapes reg in
  Fmt.pr
    "  %d scrapes: fresh registry %.4fs (%5.1f us/scrape), after ~%dk \
     events %.4fs (%5.1f us/scrape, %.2fx)@."
    scrapes t_fresh
    (1e6 *. t_fresh /. float_of_int scrapes)
    (3 * events_per_trial / 1000)
    t_loaded
    (1e6 *. t_loaded /. float_of_int scrapes)
    (t_loaded /. t_fresh);
  check "scrape cost independent of absorbed event volume (< 2x)"
    ~paper:true
    ~measured:(t_loaded /. t_fresh < 2.0)

(* ------------------------------------------------------------------ *)
(* P10: blame-attribution overhead — the Stm.Obs sites must cost
   nothing measurable while nothing is subscribed (conflict sites check
   one atomic flag and only on abort paths; the commit site adds one
   load per commit), stay under 100 ns per blame event (one per
   uncontended commit) with a counting subscriber, every site's
   dispatch included, and the armed attribution must be truthful:
   under two-domain write-write contention the DSTM core produces
   Stolen edges while TL2 produces none (TL2 has no stealing to
   attribute).  See EXPERIMENTS.md §P10. *)

let p10_blame_overhead () =
  section "P10" "blame: disarmed vs armed attribution seam, stolen edges";
  (* A counting subscriber that takes what the blame graph takes: the
     conflict sites and the commit site's progress watermark.
     Uncontended single-domain increments produce no blame edges, so
     that is one event per commit; every other site is delivered and
     ignored, and its dispatch is part of the armed cost. *)
  let s =
    seam_cost
      ~count:
        (count_sites (function
          | Obs.Conflict _ | Obs.Commit -> true
          | _ -> false))
      ~arm:(fun () ->
        let fired = Atomic.make 0 in
        let counting =
          Obs.subscribe (fun site _ _ ->
              (match site with
              | Obs.Conflict _ | Obs.Commit -> Atomic.incr fired
              | _ -> ());
              Obs.Proceed)
        in
        fun () -> Obs.unsubscribe counting)
  in
  let events_per_trial = snd s.counted in
  let armed_ns_per_event = per_event s ~events:events_per_trial s.t_armed in
  let disarmed_ns_per_event =
    per_event s ~events:events_per_trial s.t_disarmed
  in
  baseline_row s "seam disarmed   ";
  row s "counting sub    " s.t_armed
    (Fmt.str ", %d events/trial, %.1f ns/event" events_per_trial
       armed_ns_per_event);
  row s "uninstalled     " s.t_disarmed
    (Fmt.str ", %.1f ns/event" disarmed_ns_per_event);
  check "every commit ticks the progress watermark" ~paper:true
    ~measured:(events_per_trial >= seam_iters);
  check "disarmed blame seam costs nothing measurable (< 100 ns/event)"
    ~paper:true
    ~measured:(disarmed_ns_per_event < 100.0);
  check "armed counting sink cheap per event (< 100 ns/event)" ~paper:true
    ~measured:(armed_ns_per_event < 100.0);
  check "uninstall restores the disarmed fast path (< 1.5x)" ~paper:true
    ~measured:(s.t_disarmed /. s.t_off < 1.5);
  (* Truthful causes: two domains hammering two shared t-variables.
     DSTM acquires eagerly and resolves conflicts by stealing, so the
     blame graph must carry Stolen edges; TL2 has no stealing, so a
     Stolen edge under TL2 would be a lie. *)
  let iters2 = 50_000 in
  let contend algo =
    Stm.with_algo algo (fun () ->
        let reg = Tm_telemetry.Registry.create () in
        let g = Tm_telemetry.Blame_graph.create reg ~domains:2 in
        let sub = Obs.subscribe (Tm_telemetry.Blame_graph.subscriber g) in
        let hot = Array.init 2 (fun _ -> Stm.tvar 0) in
        spawn_join 2 (fun d ->
            Obs.set_self d;
            for _ = 1 to iters2 do
              Stm.atomically (fun () ->
                  let a = Stm.read hot.(0) in
                  let b = Stm.read hot.(1) in
                  Stm.write hot.(0) (a + 1);
                  Stm.write hot.(1) (b + 1))
            done;
            Obs.set_self (-1));
        Obs.unsubscribe sub;
        ( List.assoc Obs.Stolen (Tm_telemetry.Blame_graph.cause_counts g),
          Tm_telemetry.Blame_graph.clock g ))
  in
  (* Steal windows are a few hundred ns wide, so one round can get
     unlucky; accumulate rounds until a steal shows (the TL2 zero is
     exact — no retry needed to trust it). *)
  let rec accumulate algo stolen clock rounds =
    let st, c = contend algo in
    let stolen = stolen + st and clock = clock + c in
    if stolen > 0 || rounds <= 1 then (stolen, clock)
    else accumulate algo stolen clock (rounds - 1)
  in
  let dstm_stolen, dstm_clock = accumulate Stm.Algo.Dstm 0 0 5 in
  let tl2_stolen, tl2_clock = contend Stm.Algo.Tl2 in
  Fmt.pr
    "  2 domains x %d contended increments: dstm %d stolen / %d ticks, tl2 \
     %d stolen / %d ticks@."
    iters2 dstm_stolen dstm_clock tl2_stolen tl2_clock;
  check "dstm attributes its steals (Stolen edges > 0)" ~paper:true
    ~measured:(dstm_stolen > 0);
  check "tl2 shows no Stolen edges (nothing to steal)" ~paper:true
    ~measured:(tl2_stolen = 0);
  write_result ~what:"blame numbers" "BENCH_blame.json"
    (Fmt.str
       "{\"experiment\":\"P10\",\"claim\":\"blame seam free when disarmed, \
        truthful when armed\",\"iters\":%d,\"seam\":{\"baseline_s\":%.4f,\
        \"armed_s\":%.4f,\"uninstalled_s\":%.4f,\"events_per_trial\":%d,\
        \"armed_ns_per_event\":%.1f,\"disarmed_ns_per_event\":%.1f},\
        \"separation\":{\"iters_per_domain\":%d,\"dstm_stolen\":%d,\
        \"tl2_stolen\":%d,\"holds\":%b}}"
       seam_iters s.t_off s.t_armed s.t_disarmed events_per_trial
       armed_ns_per_event disarmed_ns_per_event iters2 dstm_stolen tl2_stolen
       (dstm_stolen > 0 && tl2_stolen = 0))
