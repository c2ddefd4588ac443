(* A coordinated-omission-free latency recorder.

   Closed-loop measurement — latency of completed requests, taken from
   dispatch — is blind to stalls: a server that freezes simply stops
   producing samples, and the recorded distribution stays rosy.  This
   recorder closes both holes:

   - sojourn time is measured from the request's *scheduled arrival*
     (the open-loop clock), not from dispatch, so queueing delay under
     overload is part of the sample, split out from service time;

   - every domain publishes its current in-flight request's scheduled
     arrival in a single-writer slot, so a scrape can see requests that
     have not completed.  The open-loop quantiles fold those censored
     requests in with the classic coordinated-omission correction: an
     in-flight request of age A stands in for the A/interval arrivals
     stalled behind it, contributing synthetic samples A, A - i, A - 2i
     ... — so a stalled server's open-loop p99 grows with the stall
     while its closed-loop p99 (completed samples only) stays flat.

   All three distributions live in hires histograms (linear sub-buckets
   per log2 decade), giving usable p99.9/p99.99 bounds. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* In-flight slots are single-writer (the owning domain); [idle] marks
   an empty slot. *)
let idle = min_int

type t = {
  domains : int;
  interval : int;  (* expected inter-arrival, ns: the CO correction unit *)
  queueing : Instrument.histogram;
  service : Instrument.histogram;
  sojourn : Instrument.histogram;
  inflight : int Atomic.t array;  (* sched ts of the current request *)
}

let mark t d ~sched = Atomic.set t.inflight.(d) sched
let abandon t d = Atomic.set t.inflight.(d) idle

(* An int [max 0 d]: the polymorphic [max] is a comparison call when
   not inlined, and [complete] runs once per open-loop request. *)
let nonneg d = if d > 0 then d else 0 [@@inline]

let complete t d ~start ~finish =
  let sched = Atomic.get t.inflight.(d) in
  let sched = if sched = idle then start else sched in
  Instrument.observe t.queueing (nonneg (start - sched));
  Instrument.observe t.service (nonneg (finish - start));
  Instrument.observe t.sojourn (nonneg (finish - sched));
  Atomic.set t.inflight.(d) idle

let inflight_age t ~now d =
  let sched = Atomic.get t.inflight.(d) in
  if sched = idle then 0 else nonneg (now - sched)

let ages t ~now = Array.init t.domains (inflight_age t ~now)
let oldest_age t ~now = Array.fold_left max 0 (ages t ~now)

let queueing_snapshot t = Instrument.hist_snapshot t.queueing
let service_snapshot t = Instrument.hist_snapshot t.service
let sojourn_snapshot t = Instrument.hist_snapshot t.sojourn
let closed_quantile t q = Tm_sim.Hist.quantile (sojourn_snapshot t) q

(* Cap the synthetic samples one in-flight request can contribute, so a
   pathological (tiny interval, huge age) fold stays O(cap). *)
let co_cap = 1_000_000

(* The snapshot is a fresh copy of the shards, so the synthetic
   samples go straight into it. *)
let open_quantile t ~now q =
  let snap = sojourn_snapshot t in
  Array.iter
    (fun slot ->
      let sched = Atomic.get slot in
      if sched <> idle then begin
        let v = ref (nonneg (now - sched)) and steps = ref 0 in
        while !v > 0 && !steps < co_cap do
          Tm_sim.Hist.add snap !v;
          incr steps;
          v := !v - t.interval
        done
      end)
    t.inflight;
  Tm_sim.Hist.quantile snap q

(* The registry reads every value at scrape time, the ages and the
   open-loop p99 against the clock of that moment. *)
let register t metric reg =
  let hist name help h =
    Registry.histogram reg ~help (metric ^ name) (fun () ->
        Instrument.hist_snapshot h)
  in
  hist "_queueing_ns" "Scheduled arrival to dispatch (open-loop)" t.queueing;
  hist "_service_ns" "Dispatch to completion" t.service;
  hist "_sojourn_ns" "Scheduled arrival to completion (open-loop)" t.sojourn;
  for d = 0 to t.domains - 1 do
    Registry.gauge reg
      ~labels:[ ("domain", string_of_int d) ]
      ~help:"Age of the oldest in-flight request (starvation age)"
      (metric ^ "_oldest_inflight_age_ns")
      (fun () -> inflight_age t ~now:(now_ns ()) d)
  done;
  Registry.gauge reg ~help:"Completed-sample sojourn p99 (closed-loop)"
    (metric ^ "_closed_p99_ns")
    (fun () -> closed_quantile t 0.99);
  Registry.gauge reg
    ~help:"Censored open-loop sojourn p99 (in-flight ages folded in)"
    (metric ^ "_open_p99_ns")
    (fun () -> open_quantile t ~now:(now_ns ()) 0.99)

let create ?registry ?(metric = "tm_latency") ?(interval_ns = 1_000_000)
    ~domains () =
  if domains < 1 then invalid_arg "Latency_recorder.create: domains < 1";
  if interval_ns < 1 then
    invalid_arg "Latency_recorder.create: interval_ns < 1";
  let hires () =
    Instrument.histogram ~shards:domains ~layout:Tm_sim.Hist.hires ()
  in
  let t =
    {
      domains;
      interval = interval_ns;
      queueing = hires ();
      service = hires ();
      sojourn = hires ();
      inflight = Array.init domains (fun _ -> Atomic.make idle);
    }
  in
  Option.iter (register t metric) registry;
  t

let corroborate t ~now ~progressing =
  if Array.length progressing <> t.domains then
    invalid_arg "Latency_recorder.corroborate: progressing length";
  let ok = ref true in
  Array.iteri
    (fun d prog ->
      if not prog then ok := !ok && inflight_age t ~now d > 0)
    progressing;
  !ok

type summary = {
  y_queueing : Instrument.hsnap;
  y_service : Instrument.hsnap;
  y_sojourn : Instrument.hsnap;
  y_open_p99 : int;
  y_closed_p99 : int;
  y_oldest_age : int;
}

let summary t ~now =
  {
    y_queueing = queueing_snapshot t;
    y_service = service_snapshot t;
    y_sojourn = sojourn_snapshot t;
    y_open_p99 = open_quantile t ~now 0.99;
    y_closed_p99 = closed_quantile t 0.99;
    y_oldest_age = oldest_age t ~now;
  }

let pp_summary ppf y =
  Fmt.pf ppf
    "@[<v>open-loop: queueing %a@,open-loop: service  %a@,open-loop: \
     sojourn  %a@,open-loop: p99 %d ns censored vs %d ns closed-loop \
     (oldest in-flight %d ns)@]"
    Tm_sim.Hist.pp y.y_queueing Tm_sim.Hist.pp y.y_service Tm_sim.Hist.pp
    y.y_sojourn y.y_open_p99
    y.y_closed_p99 y.y_oldest_age
