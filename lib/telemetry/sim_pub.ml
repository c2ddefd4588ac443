(* Publishing a simulator run into a registry, on the step clock.

   [publish] folds a finished history with each event's index as
   timestamp; counters are updated per event, and every [period] events
   the liveness gauge is updated and the registry scraped into the
   consumers, so the resulting JSONL time series is a pure function of
   the history — byte-identical across equal runs.
   Everything is single-domain (the simulator is sequential), hence
   [~shards:1] instruments. *)

module Ev = Tm_history.Event

type t = {
  period : int;
  reg : Registry.t;
  liveness : Liveness_gauge.t;
  consumers : (Registry.snapshot -> unit) list;
  events : Instrument.counter;
  p_events : Instrument.counter array;  (* index = proc, slot 0 unused *)
  p_invs : Instrument.counter array;
  p_trycs : Instrument.counter array;
  p_commits : Instrument.counter array;
  p_aborts : Instrument.counter array;
}

let create ?(period = 200) ?(consumers = []) ~nprocs reg =
  if period < 1 then invalid_arg "Sim_pub.create: period must be positive";
  (* proc 0 is the simulator's unused environment slot; keep a cell for
     uniform indexing but don't register it (it would export dead
     series). *)
  let per name help =
    Array.init (nprocs + 1) (fun p ->
        if p = 0 then Instrument.counter ~shards:1 ()
        else
          Registry.counter reg ~shards:1
            ~labels:[ ("proc", string_of_int p) ]
            ~help name)
  in
  let events =
    Registry.counter reg ~shards:1 ~help:"History events recorded"
      "tm_sim_events_total"
  in
  let p_events =
    per "tm_sim_proc_events_total" "History events of the process"
  in
  let p_invs = per "tm_sim_invocations_total" "Invocations of the process" in
  let p_trycs = per "tm_sim_trycs_total" "tryC invocations of the process" in
  let p_commits = per "tm_sim_commits_total" "Committed transactions" in
  let p_aborts = per "tm_sim_aborts_total" "Aborted transactions" in
  let sources =
    Array.init nprocs (fun i ->
        let p = i + 1 in
        Liveness_gauge.of_counters ~ops:p_events.(p) ~trycs:p_trycs.(p)
          ~commits:p_commits.(p) ~aborts:p_aborts.(p))
  in
  let liveness =
    Liveness_gauge.create reg ~label:"proc"
      ~ids:(Array.init nprocs (fun i -> i + 1))
      ~sources
  in
  {
    period;
    reg;
    liveness;
    consumers;
    events;
    p_events;
    p_invs;
    p_trycs;
    p_commits;
    p_aborts;
  }

let scrape t ~ts =
  ignore (Liveness_gauge.update t.liveness);
  let snap = Registry.scrape t.reg ~ts in
  List.iter (fun f -> f snap) t.consumers

let count t ev =
  Instrument.incr t.events;
  match ev with
  | Ev.Inv (p, inv) ->
      Instrument.incr t.p_events.(p);
      Instrument.incr t.p_invs.(p);
      if inv = Ev.Try_commit then Instrument.incr t.p_trycs.(p)
  | Ev.Res (p, resp) -> (
      Instrument.incr t.p_events.(p);
      match resp with
      | Ev.Committed -> Instrument.incr t.p_commits.(p)
      | Ev.Aborted -> Instrument.incr t.p_aborts.(p)
      | Ev.Value _ | Ev.Ok_written -> ())

let publish t h =
  let ts = ref 0 in
  Tm_history.History.iter
    (fun ev ->
      count t ev;
      if !ts mod t.period = 0 then scrape t ~ts:!ts;
      incr ts)
    h;
  scrape t ~ts:!ts
