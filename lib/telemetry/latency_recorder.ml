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
  queueing : Instrument.hires;
  service : Instrument.hires;
  sojourn : Instrument.hires;
  inflight : int Atomic.t array;  (* sched ts of the current request *)
  age_gauges : Instrument.gauge array;  (* set by [publish] *)
  open_p99_gauge : Instrument.gauge option;
  closed_p99_gauge : Instrument.gauge option;
}

let create ?registry ?(metric = "tm_latency") ?(interval_ns = 1_000_000)
    ~domains () =
  if domains < 1 then invalid_arg "Latency_recorder.create: domains < 1";
  if interval_ns < 1 then
    invalid_arg "Latency_recorder.create: interval_ns < 1";
  let shards = domains in
  let hires name help =
    match registry with
    | Some reg -> Registry.hires reg ~shards ~help (metric ^ name)
    | None -> Instrument.hires ~shards ()
  in
  let queueing =
    hires "_queueing_ns" "Scheduled arrival to dispatch (open-loop)"
  in
  let service = hires "_service_ns" "Dispatch to completion" in
  let sojourn =
    hires "_sojourn_ns" "Scheduled arrival to completion (open-loop)"
  in
  let age_gauges =
    Array.init domains (fun d ->
        match registry with
        | Some reg ->
            Registry.gauge reg
              ~labels:[ ("domain", string_of_int d) ]
              ~help:
                "Age of the oldest in-flight request (starvation age; \
                 set at publish time)"
              (metric ^ "_oldest_inflight_age_ns")
        | None -> Instrument.gauge ())
  in
  let p99 name help =
    match registry with
    | Some reg -> Some (Registry.gauge reg ~help (metric ^ name))
    | None -> None
  in
  {
    domains;
    interval = interval_ns;
    queueing;
    service;
    sojourn;
    inflight = Array.init domains (fun _ -> Atomic.make idle);
    age_gauges;
    open_p99_gauge =
      p99 "_open_p99_ns"
        "Censored open-loop sojourn p99 (in-flight ages folded in)";
    closed_p99_gauge =
      p99 "_closed_p99_ns" "Completed-sample sojourn p99 (closed-loop)";
  }

let mark t d ~sched = Atomic.set t.inflight.(d) sched
let abandon t d = Atomic.set t.inflight.(d) idle

let complete t d ~start ~finish =
  let sched = Atomic.get t.inflight.(d) in
  let sched = if sched = idle then start else sched in
  Instrument.hires_observe t.queueing (max 0 (start - sched));
  Instrument.hires_observe t.service (max 0 (finish - start));
  Instrument.hires_observe t.sojourn (max 0 (finish - sched));
  Atomic.set t.inflight.(d) idle

let inflight_age t ~now d =
  let sched = Atomic.get t.inflight.(d) in
  if sched = idle then 0 else max 0 (now - sched)

let ages t ~now = Array.init t.domains (inflight_age t ~now)
let oldest_age t ~now = Array.fold_left max 0 (ages t ~now)

let queueing_snapshot t = Instrument.hires_snapshot t.queueing
let service_snapshot t = Instrument.hires_snapshot t.service
let sojourn_snapshot t = Instrument.hires_snapshot t.sojourn

let closed_quantile t q =
  Instrument.hires_quantile (Instrument.hires_snapshot t.sojourn) q

(* Cap the synthetic samples one in-flight request can contribute, so a
   pathological (tiny interval, huge age) fold stays O(cap). *)
let co_cap = 1_000_000

let open_quantile t ~now q =
  let snap = Instrument.hires_snapshot t.sojourn in
  let buckets = Array.copy snap.Instrument.buckets in
  let count = ref snap.Instrument.count in
  let max_sample = ref snap.Instrument.max_sample in
  Array.iter
    (fun slot ->
      let sched = Atomic.get slot in
      if sched <> idle then begin
        let age = max 0 (now - sched) in
        if age > 0 then begin
          max_sample := max !max_sample age;
          let v = ref age and steps = ref 0 in
          while !v > 0 && !steps < co_cap do
            let k = Instrument.hires_bucket_of !v in
            buckets.(k) <- buckets.(k) + 1;
            incr count;
            incr steps;
            v := !v - t.interval
          done
        end
      end)
    t.inflight;
  Instrument.hires_quantile
    {
      Instrument.buckets;
      count = !count;
      sum = snap.Instrument.sum;
      max_sample = !max_sample;
    }
    q

let publish t ~now =
  Array.iteri
    (fun d g -> Instrument.set_gauge g (inflight_age t ~now d))
    t.age_gauges;
  Option.iter
    (fun g -> Instrument.set_gauge g (open_quantile t ~now 0.99))
    t.open_p99_gauge;
  Option.iter
    (fun g -> Instrument.set_gauge g (closed_quantile t 0.99))
    t.closed_p99_gauge

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
    Instrument.pp_hires_snap y.y_queueing Instrument.pp_hires_snap
    y.y_service Instrument.pp_hires_snap y.y_sojourn y.y_open_p99
    y.y_closed_p99 y.y_oldest_age
