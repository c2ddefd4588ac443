(* Publishing a simulator run into a registry, on the step clock.

   [publish] folds a finished history with each event's index as
   timestamp; the counts are plain ints (the simulator is sequential)
   that the registered counters read, and every [period] events the
   liveness gauge is updated and the registry scraped into the
   consumers, so the resulting JSONL time series is a pure function of
   the history — byte-identical across equal runs. *)

module Ev = Tm_history.Event

let period = 200

type t = {
  reg : Registry.t;
  liveness : Liveness_gauge.t;
  consumers : (Registry.snapshot -> unit) list;
  events : int ref;
  p_events : int array;  (* index = proc, slot 0 unused *)
  p_invs : int array;
  p_trycs : int array;
  p_commits : int array;
  p_aborts : int array;
}

let create ?(consumers = []) ~nprocs reg =
  let events = ref 0 in
  Registry.counter reg ~help:"History events recorded" "tm_sim_events_total"
    (fun () -> !events);
  (* proc 0 is the simulator's unused environment slot; keep a cell for
     uniform indexing but don't register it (it would export dead
     series). *)
  let per name help =
    let a = Array.make (nprocs + 1) 0 in
    for p = 1 to nprocs do
      Registry.counter reg
        ~labels:[ ("proc", string_of_int p) ]
        ~help name
        (fun () -> a.(p))
    done;
    a
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
        Liveness_gauge.source
          ~ops:(fun () -> p_events.(p))
          ~trycs:(fun () -> p_trycs.(p))
          ~commits:(fun () -> p_commits.(p))
          ~aborts:(fun () -> p_aborts.(p)))
  in
  let liveness =
    Liveness_gauge.create reg ~label:"proc"
      ~ids:(Array.init nprocs (fun i -> i + 1))
      ~sources
  in
  {
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
  Liveness_gauge.update t.liveness;
  let snap = Registry.scrape t.reg ~ts in
  List.iter (fun f -> f snap) t.consumers

let bump a p = a.(p) <- a.(p) + 1

let count t ev =
  incr t.events;
  match ev with
  | Ev.Inv (p, inv) ->
      bump t.p_events p;
      bump t.p_invs p;
      if inv = Ev.Try_commit then bump t.p_trycs p
  | Ev.Res (p, resp) -> (
      bump t.p_events p;
      match resp with
      | Ev.Committed -> bump t.p_commits p
      | Ev.Aborted -> bump t.p_aborts p
      | Ev.Value _ | Ev.Ok_written -> ())

let publish t h =
  let ts = ref 0 in
  Tm_history.History.iter
    (fun ev ->
      count t ev;
      if !ts mod period = 0 then scrape t ~ts:!ts;
      incr ts)
    h;
  scrape t ~ts:!ts
