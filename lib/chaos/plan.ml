module Prng = Tm_sim.Prng
module Pc = Tm_liveness.Process_class
module Tev = Tm_trace.Trace_event
module Algo = Tm_stm.Stm.Algo

type fault =
  | Healthy
  | Crash of { at_op : int; holding_locks : bool }
  | Parasitic of { from_op : int }
  | Stall of { period : int; spins : int }
  | Abort_storm of { from_op : int; until_op : int }

type t = {
  scenario : string;
  seed : int;
  domains : int;
  algo : Algo.t;
  faults : fault array;
  expected : Pc.cls array;
}

let scenario_table =
  [
    ("healthy", "no faults: every domain must progress");
    ( "crash-holding-locks",
      "domain 0 crashes at pre-commit with its write-set vlocks held; \
       conflicting peers must starve" );
    ( "crash-clean",
      "domain 0 crashes at a read, holding nothing; peers must progress" );
    ( "parasitic-only",
      "domain 0 loops forever without tryC; peers must progress" );
    ("stall", "domain 0 stalls periodically; every domain must still progress");
    ( "abort-storm",
      "domain 0 suffers a transient forced-abort window; every domain must \
       still progress" );
    ( "mixed",
      "domain 0 crashes clean and domain 1 turns parasitic; remaining \
       domains must progress" );
  ]

let scenarios = List.map fst scenario_table
let scenario_doc s = List.assoc_opt s scenario_table

(* Fault instants are early in the run, within the first few hundred
   operations.  The watchdog's window opens only once each faulty
   domain's op clock has passed its [fault_instant], so it sees the
   steady faulty state, not the onset. *)
let fault_of_scenario scenario d g =
  match scenario with
  | "healthy" -> Healthy
  | "crash-holding-locks" ->
      if d = 0 then Crash { at_op = 64 + Prng.int g 64; holding_locks = true }
      else Healthy
  | "crash-clean" ->
      if d = 0 then Crash { at_op = 64 + Prng.int g 64; holding_locks = false }
      else Healthy
  | "parasitic-only" ->
      if d = 0 then Parasitic { from_op = 32 + Prng.int g 64 } else Healthy
  | "stall" ->
      if d = 0 then Stall { period = 8 + Prng.int g 8; spins = 64 + Prng.int g 192 }
      else Healthy
  | "abort-storm" ->
      if d = 0 then begin
        let from_op = 64 + Prng.int g 128 in
        Abort_storm { from_op; until_op = from_op + 256 + Prng.int g 256 }
      end
      else Healthy
  | "mixed" ->
      (* The per-algo expectations read mixed as a causal sequence —
         the crash lands first, then a parasite appears in the wreckage
         — so the runner holds the parasite's onset until the crasher
         has actually died (per-domain op clocks cannot order onsets
         across domains: under the serializer the eventual winner's
         clock outruns a starving peer's arbitrarily). *)
      if d = 0 then Crash { at_op = 64 + Prng.int g 64; holding_locks = false }
      else if d = 1 then Parasitic { from_op = 32 + Prng.int g 64 }
      else Healthy
  | _ -> assert false

(* The per-algorithm Figure-2 matrix: what each fault does to the
   faulty domain's peers depends on which core is running — this is the
   separation the paper's Section 3.2.3 is about, made executable.

   - crash-holding-locks: the crashed domain abandons whatever its
     commit holds.  Lock-based cores (tl2's vlocks, the serializer,
     NOrec's sequence lock) strand their peers forever — Starving; the
     obstruction-free DSTM core's peers steal the abandoned ownerships
     and keep committing — Progressing.
   - crash-clean: the crash point is a transactional read.  Every core
     holds nothing there except the global-lock serializer, which
     acquires at first access — its crash strands the serializer and
     every peer starves; all other cores' peers progress.
   - parasitic-only: the parasite loops inside one transaction body
     without ever reaching tryC.  Under the global-lock core that body
     holds the serializer, so the peers starve behind an active (not
     crashed) lock holder; every other core isolates the parasite and
     the peers progress.  Under global-lock in [mixed], the parasite
     itself classifies Starving, not Parasitic: it aborts repeatedly
     behind the serializer stranded by the crashed domain, and forced
     aborts are visible work. *)
let expected_of_scenario ~algo scenario d =
  match scenario with
  | "healthy" | "stall" | "abort-storm" -> Pc.Progressing
  | "crash-holding-locks" ->
      if d = 0 then Pc.Crashed
      else ( match algo with
        | Algo.Dstm -> Pc.Progressing
        | Algo.Tl2 | Algo.Global_lock | Algo.Norec -> Pc.Starving)
  | "crash-clean" ->
      if d = 0 then Pc.Crashed
      else ( match algo with
        | Algo.Global_lock -> Pc.Starving
        | Algo.Tl2 | Algo.Dstm | Algo.Norec -> Pc.Progressing)
  | "parasitic-only" ->
      if d = 0 then Pc.Parasitic
      else ( match algo with
        | Algo.Global_lock -> Pc.Starving
        | Algo.Tl2 | Algo.Dstm | Algo.Norec -> Pc.Progressing)
  | "mixed" ->
      if d = 0 then Pc.Crashed
      else if d = 1 then
        match algo with
        | Algo.Global_lock -> Pc.Starving
        | Algo.Tl2 | Algo.Dstm | Algo.Norec -> Pc.Parasitic
      else (
        match algo with
        | Algo.Global_lock -> Pc.Starving
        | Algo.Tl2 | Algo.Dstm | Algo.Norec -> Pc.Progressing)
  | _ -> assert false

let make ?(algo = Algo.Tl2) ~scenario ~seed ~domains () =
  if not (List.mem_assoc scenario scenario_table) then
    Error
      (Fmt.str "unknown scenario %S (try: %s)" scenario
         (String.concat ", " scenarios))
  else if domains < 2 then
    Error "a chaos plan needs at least 2 domains (a faulty one and a peer)"
  else if scenario = "mixed" && domains < 3 then
    Error "the mixed scenario needs at least 3 domains"
  else begin
    let g = Prng.create seed in
    (* One generator per domain, split off in domain order: a domain's
       fault parameters do not depend on how many draws other domains'
       faults consumed. *)
    let gs = Array.init domains (fun _ -> Prng.split g) in
    Ok
      {
        scenario;
        seed;
        domains;
        algo;
        faults = Array.init domains (fun d -> fault_of_scenario scenario d gs.(d));
        expected = Array.init domains (expected_of_scenario ~algo scenario);
      }
  end

let fault_label = function
  | Healthy -> "healthy"
  | Crash { at_op; holding_locks } ->
      Fmt.str "crash@op=%d%s" at_op (if holding_locks then "+locks" else "")
  | Parasitic { from_op } -> Fmt.str "parasitic@op=%d" from_op
  | Stall { period; spins } -> Fmt.str "stall(period=%d,spins=%d)" period spins
  | Abort_storm { from_op; until_op } ->
      Fmt.str "abort-storm[%d,%d)" from_op until_op

let fault_instant = function
  | Healthy -> 0
  | Crash { at_op; _ } -> at_op
  | Parasitic { from_op } -> from_op
  | Stall { period; _ } -> period
  | Abort_storm { until_op; _ } -> until_op

let horizon p = 1 + Array.fold_left (fun acc f -> max acc (fault_instant f)) 0 p.faults

let trace_events p =
  let event d = function
    | Healthy -> None
    | Crash { at_op; holding_locks } ->
        Some
          (Tev.instant ~ts:at_op ~tid:d Tev.Fault "chaos-crash"
             [
               ("op", Tev.Int at_op);
               ("holding_locks", Tev.Str (string_of_bool holding_locks));
             ])
    | Parasitic { from_op } ->
        Some
          (Tev.instant ~ts:from_op ~tid:d Tev.Fault "chaos-parasitic"
             [ ("op", Tev.Int from_op) ])
    | Stall { period; spins } ->
        Some
          (Tev.instant ~ts:period ~tid:d Tev.Fault "chaos-stall"
             [ ("period", Tev.Int period); ("spins", Tev.Int spins) ])
    | Abort_storm { from_op; until_op } ->
        Some
          (Tev.instant ~ts:from_op ~tid:d Tev.Fault "chaos-abort-storm"
             [ ("from", Tev.Int from_op); ("until", Tev.Int until_op) ])
  in
  List.filter_map
    (fun d -> event d p.faults.(d))
    (List.init p.domains Fun.id)

let pp ppf p =
  Fmt.pf ppf "@[<v>chaos plan %s algo=%s seed=%d domains=%d@," p.scenario
    (Algo.name p.algo) p.seed p.domains;
  Array.iteri
    (fun d f ->
      Fmt.pf ppf "domain %d: %s expect %s@," d (fault_label f)
        (Pc.cls_label p.expected.(d)))
    p.faults;
  Fmt.pf ppf "@]"
