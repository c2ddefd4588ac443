(* The bridge from [Stm.Obs] to the registry: a weighted
   who-aborted-whom digraph with per-edge cause histograms, plus
   per-domain progress watermarks.

   Cell layout: [cells.(victim+1).(aggressor+1).(cause)] — index 0 on
   both identity axes is the unknown slot (-1), so no event is ever
   dropped.  Every cell has a unique writer domain (a [Stolen] edge is
   written by the aggressor, every other cause by the victim, and one
   slot is one domain), so the counters are registered with
   [~shards:1] and the emit path is a single unsharded increment.

   The watermark clock is the graph's own event clock — one tick per
   blame event or commit — which is the only cross-domain clock the
   seam itself defines.  [last_commit] is the clock value at a slot's
   most recent commit; its wait age is the distance from the current
   clock, i.e. how many blame-worthy things happened since it last got
   through.  The registered clock, last-commit and wait-age gauges read
   these atomics at scrape time; the emit path never touches the
   registry.

   The graph accessors count from the last {!mark}: [base] holds every
   cell's value at that point, so a run can attribute only what
   happened inside its observation window while the registry keeps
   exporting cumulative counters. *)

module Obs = Tm_stm.Stm.Obs

type t = {
  domains : int;
  cells : Instrument.counter array array array;
  mutable base : int array array array;
  commits : Instrument.counter array;  (* per slot, unknown excluded *)
  last_commit : int Atomic.t array;
  clock : int Atomic.t;
}

let ncauses = List.length Obs.causes

let cause_index = function
  | Obs.Read_conflict -> 0
  | Obs.Lock_busy -> 1
  | Obs.Validation -> 2
  | Obs.Stolen -> 3
  | Obs.Wait_budget -> 4

let cause_of_index i = List.nth Obs.causes i
let slot_label = function -1 -> "unknown" | n -> string_of_int n
let clock t = Atomic.get t.clock
let last_commit t d = Atomic.get t.last_commit.(d)
let wait_age t d = max 0 (clock t - last_commit t d)

let create reg ~domains =
  if domains < 1 then invalid_arg "Blame_graph.create: domains must be >= 1";
  let counter ~labels ~help name =
    let c = Instrument.counter ~shards:1 () in
    Registry.counter reg ~labels ~help name (fun () -> Instrument.value c);
    c
  in
  let cells =
    Array.init (domains + 1) (fun vi ->
        Array.init (domains + 1) (fun ai ->
            Array.init ncauses (fun ci ->
                counter
                  ~labels:
                    [
                      ("victim", slot_label (vi - 1));
                      ("aggressor", slot_label (ai - 1));
                      ("cause", Obs.cause_label (cause_of_index ci));
                    ]
                  ~help:"Blame events by victim, aggressor and cause"
                  "tm_blame_events_total")))
  in
  let commits =
    Array.init domains (fun d ->
        counter
          ~labels:[ ("domain", string_of_int d) ]
          ~help:"Commits per plan slot (the blame progress watermark feed)"
          "tm_blame_commits_total")
  in
  let t =
    {
      domains;
      cells;
      base = Array.map (Array.map (Array.map (fun _ -> 0))) cells;
      commits;
      last_commit = Array.init domains (fun _ -> Atomic.make 0);
      clock = Atomic.make 0;
    }
  in
  let per name help read =
    for d = 0 to domains - 1 do
      Registry.gauge reg
        ~labels:[ ("domain", string_of_int d) ]
        ~help name
        (fun () -> read t d)
    done
  in
  per "tm_blame_wait_age" "Blame-clock ticks since the slot's last commit"
    wait_age;
  per "tm_blame_last_commit" "Blame-clock value at the slot's last commit"
    last_commit;
  Registry.gauge reg
    ~help:"Blame event clock (one tick per blame event or commit)"
    "tm_blame_clock" (fun () -> clock t);
  t

let idx d = d + 1

(* A conflict names the other party: the aggressor, except for a steal,
   which the aggressor reports and which names the victim. *)
let subscriber t : Obs.subscriber =
 fun site a _ ->
  (match site with
  | Obs.Conflict c ->
      ignore (Atomic.fetch_and_add t.clock 1);
      let victim, aggressor =
        match c with Obs.Stolen -> (a, Obs.self ()) | _ -> (Obs.self (), a)
      in
      let slot d = if d >= 0 && d < t.domains then idx d else 0 in
      Instrument.incr t.cells.(slot victim).(slot aggressor).(cause_index c)
  | Obs.Commit ->
      let slot = Obs.self () in
      let now = Atomic.fetch_and_add t.clock 1 + 1 in
      if slot >= 0 && slot < t.domains then begin
        Atomic.set t.last_commit.(slot) now;
        Instrument.incr t.commits.(slot)
      end
  | _ -> ());
  Obs.Proceed

let mark t =
  t.base <- Array.map (Array.map (Array.map Instrument.value)) t.cells

let domains t = t.domains

let cell t vi ai ci =
  Instrument.value t.cells.(vi).(ai).(ci) - t.base.(vi).(ai).(ci)

let edge t ~victim ~aggressor cause =
  cell t (idx victim) (idx aggressor) (cause_index cause)

let edge_total t ~victim ~aggressor =
  let acc = ref 0 in
  for ci = 0 to ncauses - 1 do
    acc := !acc + cell t (idx victim) (idx aggressor) ci
  done;
  !acc

let victim_total t victim =
  let acc = ref 0 in
  for a = -1 to t.domains - 1 do
    acc := !acc + edge_total t ~victim ~aggressor:a
  done;
  !acc

let edges t =
  let out = ref [] in
  for v = t.domains - 1 downto -1 do
    for a = t.domains - 1 downto -1 do
      let n = edge_total t ~victim:v ~aggressor:a in
      if n > 0 then out := (v, a, n) :: !out
    done
  done;
  !out

let edge_causes t ~victim ~aggressor =
  List.filter_map
    (fun c ->
      let n = edge t ~victim ~aggressor c in
      if n > 0 then Some (c, n) else None)
    Obs.causes

let cause_counts t =
  List.map
    (fun c ->
      let acc = ref 0 in
      for v = -1 to t.domains - 1 do
        for a = -1 to t.domains - 1 do
          acc := !acc + edge t ~victim:v ~aggressor:a c
        done
      done;
      (c, !acc))
    Obs.causes

let commits t d = Instrument.value t.commits.(d)

(* Classification.  Raw edge weights of a real multicore run are not
   reproducible; what is reproducible is the verdicts plus wide-margin
   structure, and only those are classified here (the gateable,
   byte-comparable form — see DESIGN).  The discipline:

   - evidence is verdict-first: crashed, parasitic and progressing
     domains get their verdict back as evidence.  A progressing domain
     has no starvation to attribute, and whatever small-sample blame
     profile it shows in one window (a handful of aborts, sometimes
     momentarily lopsided) is exactly the nondeterministic part;
   - only {e starving} victims are attributed, and their signal is
     wide-margin by construction: a domain starving behind a stranded
     or held lock burns its whole window on retries, collecting
     thousands of blame events of which the blocking slot owns ~100%,
     so the [dominator_share] (90%) test separates it cleanly from
     anything symmetric (~50/50);
   - a starving victim below [min_events] is [E_quiet] — starvation the
     seam did not witness (e.g. chaos-injected abort storms, which
     bypass the instrumented decision sites);
   - the {e shape} is computed over attributable starving victims only:
     one shared dominator is a [Star] (the stranded-lock signature),
     mutual significant blame among starving victims is a [Cycle] (the
     livelock signature; existence is reported, never membership), and
     no starving victims is [No_shape] (nobody needs an explanation —
     the obstruction-free signature under crash-holding-locks). *)

let min_events = 64
let dominator_share = 0.9
let significant_share = 0.25

type evidence =
  | E_crashed
  | E_parasitic
  | E_progressing
  | E_starved_by of int
  | E_contended
  | E_quiet

type shape = Star of int | Cycle | No_shape

let evidence_label = function
  | E_crashed -> "crashed"
  | E_parasitic -> "parasitic"
  | E_progressing -> "progressing"
  | E_starved_by d -> "starved-by:" ^ slot_label d
  | E_contended -> "contended"
  | E_quiet -> "quiet"

let shape_label = function
  | Star c -> "star:" ^ slot_label c
  | Cycle -> "cycle"
  | No_shape -> "none"

let classify t ~classes =
  let module Pc = Tm_liveness.Process_class in
  if Array.length classes <> t.domains then
    invalid_arg "Blame_graph.classify: one class per domain";
  let total = Array.init t.domains (fun d -> victim_total t d) in
  let starving d =
    match classes.(d) with
    | Pc.Starving -> true
    | Pc.Crashed | Pc.Parasitic | Pc.Progressing -> false
  in
  let active d = starving d && total.(d) >= min_events in
  let dominator d =
    let best = ref (-2) and best_n = ref 0 in
    for a = -1 to t.domains - 1 do
      let n = edge_total t ~victim:d ~aggressor:a in
      if n > !best_n then begin
        best := a;
        best_n := n
      end
    done;
    if
      !best >= -1
      && float_of_int !best_n >= dominator_share *. float_of_int total.(d)
    then Some !best
    else None
  in
  let evidence =
    Array.init t.domains (fun d ->
        match classes.(d) with
        | Pc.Crashed -> E_crashed
        | Pc.Parasitic -> E_parasitic
        | Pc.Progressing -> E_progressing
        | Pc.Starving ->
            if total.(d) < min_events then E_quiet
            else (
              match dominator d with
              | Some a -> E_starved_by a
              | None -> E_contended))
  in
  (* Cycle existence among the active starving victims over significant
     edges — a livelock is starving domains blaming each other. *)
  let significant v a =
    active a && a <> v
    && float_of_int (edge_total t ~victim:v ~aggressor:a)
       >= significant_share *. float_of_int total.(v)
  in
  let cycle_exists () =
    let n = t.domains in
    let state = Array.make n 0 (* 0 unvisited, 1 on stack, 2 done *) in
    let rec dfs v =
      state.(v) <- 1;
      let found = ref false in
      for a = 0 to n - 1 do
        if (not !found) && significant v a then
          if state.(a) = 1 then found := true
          else if state.(a) = 0 && dfs a then found := true
      done;
      if not !found then state.(v) <- 2;
      !found
    in
    let any = ref false in
    for v = 0 to n - 1 do
      if (not !any) && state.(v) = 0 && active v then any := dfs v
    done;
    !any
  in
  let victims = List.filter active (List.init t.domains Fun.id) in
  let shape =
    match victims with
    | [] -> No_shape
    | v0 :: rest -> (
        match dominator v0 with
        | Some c when List.for_all (fun v -> dominator v = Some c) rest ->
            Star c
        | _ -> if cycle_exists () then Cycle else No_shape)
  in
  (shape, evidence)
