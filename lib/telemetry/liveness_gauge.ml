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

let states = [| "crashed"; "parasitic"; "starving"; "progressing" |]

let state_of_cls = function
  | Pc.Crashed -> 0
  | Pc.Parasitic -> 1
  | Pc.Starving -> 2
  | Pc.Progressing -> 3

let correct_of_cls = function
  | Pc.Starving | Pc.Progressing -> 1
  | Pc.Crashed | Pc.Parasitic -> 0

type t = {
  sources : source array;
  mutable last : Emp.counters array;
  current : Pc.cls array;
}

let zero = Emp.counters ~ops:0 ~trycs:0 ~commits:0 ~aborts:0

(* The registered metrics read [current], which only [update] and [set]
   write: a scrape sees the classes of the last one. *)
let create ?(metric = "tm_liveness") ?(label = "domain") ?ids reg ~sources =
  let nd = Array.length sources in
  let id d = match ids with Some a -> a.(d) | None -> d in
  let labels d = [ (label, string_of_int (id d)) ] in
  let t =
    {
      sources;
      last = Array.make nd zero;
      current = Array.make nd Pc.Progressing;
    }
  in
  for d = 0 to nd - 1 do
    Registry.gauge reg ~labels:(labels d)
      ~help:
        "1 when the domain is correct in the paper's sense (neither \
         crashed nor parasitic; a starving domain is still correct)"
      (metric ^ "_correct")
      (fun () -> correct_of_cls t.current.(d))
  done;
  for d = 0 to nd - 1 do
    Registry.state reg ~labels:(labels d) ~key:"class" ~states
      ~help:
        "Figure-2 class of the domain over the last scrape interval \
         (Empirical.classify_counters on counter deltas)"
      (metric ^ "_class")
      (fun () -> state_of_cls t.current.(d))
  done;
  t

let update t =
  let now =
    Array.map
      (fun s ->
        Emp.counters ~ops:(s.ops ()) ~trycs:(s.trycs ()) ~commits:(s.commits ())
          ~aborts:(s.aborts ()))
      t.sources
  in
  Array.iteri
    (fun d c ->
      t.current.(d) <- Emp.classify_counters ~first:t.last.(d) ~last:c)
    now;
  t.last <- now

let set t classes = Array.blit classes 0 t.current 0 (Array.length t.current)
