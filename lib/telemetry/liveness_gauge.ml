(* The Figure-2 class of every domain as a live metric.

   Each update reads the per-domain monotone counters, takes deltas
   against the previous update and classifies them with
   [Tm_liveness.Empirical.classify_counters] — exactly the chaos
   watchdog's verdict math, applied between consecutive scrapes instead
   of once per run.  Two metrics per domain: the stateset
   [<metric>_class{class=...,domain=...}] over the classifier's taxonomy
   and the paper-level [<metric>_correct{domain=...}] gauge (correct =
   not crashed and not parasitic, so a starving domain is still
   correct). *)

module Pc = Tm_liveness.Process_class
module Emp = Tm_liveness.Empirical

type source = {
  ops : unit -> int;
  trycs : unit -> int;
  commits : unit -> int;
  aborts : unit -> int;
}

let source ~ops ~trycs ~commits ~aborts = { ops; trycs; commits; aborts }

let of_counters ~ops ~trycs ~commits ~aborts =
  {
    ops = (fun () -> Instrument.value ops);
    trycs = (fun () -> Instrument.value trycs);
    commits = (fun () -> Instrument.value commits);
    aborts = (fun () -> Instrument.value aborts);
  }

let states = [| "crashed"; "parasitic"; "starving"; "progressing" |]

let state_of_cls = function
  | Pc.Crashed -> "crashed"
  | Pc.Parasitic -> "parasitic"
  | Pc.Starving -> "starving"
  | Pc.Progressing -> "progressing"

let correct_of_cls = function
  | Pc.Starving | Pc.Progressing -> 1
  | Pc.Crashed | Pc.Parasitic -> 0

type t = {
  sources : source array;
  mutable last : Emp.counters array;
  current : Pc.cls array;
  class_states : Registry.state array;
  correct : Instrument.gauge array;
}

let zero = Emp.counters ~ops:0 ~trycs:0 ~commits:0 ~aborts:0

let create ?(metric = "tm_liveness") ?(label = "domain") ?ids reg ~sources =
  let nd = Array.length sources in
  let id d = match ids with Some a -> a.(d) | None -> d in
  let labels d = [ (label, string_of_int (id d)) ] in
  {
    sources;
    last = Array.make nd zero;
    current = Array.make nd Pc.Progressing;
    class_states =
      Array.init nd (fun d ->
          Registry.state reg ~labels:(labels d) ~init:"progressing"
            ~key:"class" ~states
            ~help:
              "Figure-2 class of the domain over the last scrape interval \
               (Empirical.classify_counters on counter deltas)"
            (metric ^ "_class"));
    correct =
      Array.init nd (fun d ->
          Registry.gauge reg ~labels:(labels d) ~init:1
            ~help:
              "1 when the domain is correct in the paper's sense (neither \
               crashed nor parasitic; a starving domain is still correct)"
            (metric ^ "_correct"));
  }

let read_sources t =
  Array.map
    (fun s ->
      Emp.counters ~ops:(s.ops ()) ~trycs:(s.trycs ()) ~commits:(s.commits ())
        ~aborts:(s.aborts ()))
    t.sources

let update_with t now =
  Array.iteri
    (fun d c ->
      let cls = Emp.classify_counters ~first:t.last.(d) ~last:c in
      t.current.(d) <- cls;
      Registry.set_state t.class_states.(d) (state_of_cls cls);
      Instrument.set_gauge t.correct.(d) (correct_of_cls cls))
    now;
  t.last <- now;
  t.current

let update t = update_with t (read_sources t)
let rebase_with t counters = t.last <- counters
let current t = t.current
