(* The `tmlive top` renderer: a chaos session observed live.

   Each frame sleeps, updates the liveness gauge, scrapes the session
   registry and redraws: one row per worker domain (commit/abort rates
   over the last frame, injected-fault count, current Figure-2 class)
   plus the STM phase-latency percentiles from the armed
   [Tm_telemetry.Stm_probe].  Everything rendered comes out of the
   scrape snapshot — the dashboard is just another telemetry consumer,
   so [--telemetry] exports exactly what was on screen. *)

module Tel = Tm_telemetry
module Runner = Tm_chaos.Runner
module Plan = Tm_chaos.Plan

let dom d = [ ("domain", string_of_int d) ]

let num snap name d =
  Option.value ~default:0 (Tel.Registry.sample_num snap ~name ~labels:(dom d))

let aborts_of snap d =
  max 0
    (num snap "tm_chaos_attempts_total" d
    - num snap "tm_chaos_commits_total" d)

(* Latencies are nanoseconds; pick the unit that keeps 3 digits. *)
let pp_ns ppf ns =
  if ns >= 1_000_000_000 then Fmt.pf ppf "%.2fs" (float ns /. 1e9)
  else if ns >= 1_000_000 then Fmt.pf ppf "%.1fms" (float ns /. 1e6)
  else if ns >= 1_000 then Fmt.pf ppf "%.1fus" (float ns /. 1e3)
  else Fmt.pf ppf "%dns" ns

let phase_rows =
  [
    ("lock-acquire", "tm_stm_lock_acquire_ns");
    ("validate", "tm_stm_validate_ns");
    ("publish", "tm_stm_publish_ns");
    ("commit", "tm_stm_commit_ns");
    ("abort", "tm_stm_abort_ns");
  ]

(* The blame panel: the heaviest live who-aborted-whom edges and each
   domain's progress watermark.  Raw weights are fine here — this is
   the human view; the deterministic classification is `tmlive blame`'s
   job. *)
let render_blame g =
  let module Bg = Tel.Blame_graph in
  Fmt.pr "@.blame graph (events=%d):@." (Bg.clock g);
  let slot = function -1 -> "d?" | d -> "d" ^ string_of_int d in
  let edges =
    List.sort
      (fun (_, _, a) (_, _, b) -> Int.compare b a)
      (Bg.edges g)
  in
  let top = List.filteri (fun i _ -> i < 6) edges in
  if top = [] then Fmt.pr "  (no blame events yet)@."
  else
    List.iter
      (fun (v, a, n) ->
        let causes =
          String.concat ", "
            (List.map
               (fun (c, k) ->
                 Fmt.str "%s=%d" (Tm_stm.Stm.Obs.cause_label c) k)
               (Bg.edge_causes g ~victim:v ~aggressor:a))
        in
        Fmt.pr "  %-4s -> %-4s %8d  [%s]@." (slot v) (slot a) n causes)
      top;
  Fmt.pr "  wait-age:";
  for d = 0 to Bg.domains g - 1 do
    Fmt.pr " d%d=%d" d (Bg.wait_age g d)
  done;
  Fmt.pr "@."

(* The open-loop latency panel: sojourn percentiles from the hires
   histogram, the coordinated-omission split (open vs closed p99) and
   each domain's starvation age — all read from the scrape, which reads
   them from the recorder as it is taken.
   Sessions opened without the recorder simply have no such series and
   the panel stays hidden. *)
let render_latency ~nd snap =
  let m = "tm_chaos_lat" in
  match
    Tel.Registry.sample_hist snap ~name:(m ^ "_sojourn_ns") ~labels:[]
  with
  | None -> ()
  | Some h ->
      Fmt.pr "@.open-loop latency (sojourn since scheduled arrival):@.";
      (if h.Tel.Instrument.count = 0 then Fmt.pr "  (no completions yet)@."
       else
         let q p = Fmt.str "%a" pp_ns (Tm_sim.Hist.quantile h p) in
         Fmt.pr "  sojourn n=%d p50=%s p99=%s p99.9=%s max=%a@."
           h.Tel.Instrument.count (q 0.50) (q 0.99) (q 0.999) pp_ns
           h.Tel.Instrument.max_sample);
      let gauge name =
        Option.value ~default:0
          (Tel.Registry.sample_num snap ~name ~labels:[])
      in
      Fmt.pr "  p99 open=%a closed=%a" pp_ns
        (gauge (m ^ "_open_p99_ns"))
        pp_ns
        (gauge (m ^ "_closed_p99_ns"));
      Fmt.pr "   starvation-age:";
      for d = 0 to nd - 1 do
        Fmt.pr " d%d=%a" d pp_ns (num snap (m ^ "_oldest_inflight_age_ns") d)
      done;
      Fmt.pr "@."

let render ~plain ~title ~plan ~frame ~frames ~period ~prev ~blame snap =
  if not plain then print_string "\027[2J\027[H";
  let nd = plan.Plan.domains in
  let rate cur pre = float (max 0 (cur - pre)) /. period in
  let dsnap name d = num snap name d in
  let dprev name d = match prev with Some p -> num p name d | None -> 0 in
  Fmt.pr
    "tmlive top — %s %s algo=%s seed=%d domains=%d    frame %d/%d  ts=%dms@."
    title plan.Plan.scenario
    (Tm_stm.Stm.Algo.name plan.Plan.algo)
    plan.Plan.seed nd frame frames snap.Tel.Registry.ts;
  Fmt.pr "@.%-7s %-22s %10s %10s %8s %8s %-12s@." "domain" "fault" "commit/s"
    "abort/s" "commits" "faults" "class";
  for d = 0 to nd - 1 do
    let commits = dsnap "tm_chaos_commits_total" d in
    let cls =
      Option.value ~default:"?"
        (Tel.Registry.sample_state snap ~name:"tm_liveness_class"
           ~labels:(dom d))
    in
    let crashed =
      Tel.Registry.sample_num snap ~name:"tm_chaos_crashed" ~labels:(dom d)
      = Some 1
    in
    Fmt.pr "%-7d %-22s %10.0f %10.0f %8d %8d %-12s@." d
      (Plan.fault_label plan.Plan.faults.(d))
      (rate commits (dprev "tm_chaos_commits_total" d))
      (rate (aborts_of snap d)
         (match prev with Some p -> aborts_of p d | None -> 0))
      commits
      (dsnap "tm_chaos_injected_total" d)
      (cls ^ if crashed then " [dead]" else "")
  done;
  Fmt.pr "@.STM phase latencies (since start):@.";
  Fmt.pr "%-14s %10s %8s %8s %8s %8s@." "phase" "count" "p50" "p90" "p99"
    "max";
  List.iter
    (fun (label, name) ->
      match Tel.Registry.sample_hist snap ~name ~labels:[] with
      | None -> ()
      | Some h ->
          if h.Tel.Instrument.count = 0 then
            Fmt.pr "%-14s %10d %8s %8s %8s %8s@." label 0 "-" "-" "-" "-"
          else
            let q p = Fmt.str "%a" pp_ns (Tm_sim.Hist.quantile h p) in
            Fmt.pr "%-14s %10d %8s %8s %8s %8s@." label
              h.Tel.Instrument.count (q 0.50) (q 0.90) (q 0.99)
              (Fmt.str "%a" pp_ns h.Tel.Instrument.max_sample))
    phase_rows;
  render_latency ~nd snap;
  (match blame with Some g -> render_blame g | None -> ());
  Fmt.pr "%!"

(* The observation loop: sleep, advance the liveness gauge, scrape on
   the wall-ms clock, export, render. *)
let observe ~title ~plan ~period ~frames ~plain ~tel ~tty ~reg ses =
  let liveness = Runner.session_liveness ses
  and blame = Runner.session_blame ses in
  let t0 = Unix.gettimeofday () in
  let prev = ref None in
  for frame = 1 to frames do
    Unix.sleepf period;
    Tel.Liveness_gauge.update liveness;
    let ts = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.) in
    let snap = Tel.Registry.scrape reg ~ts in
    (match tel with Some (add, _) -> add snap | None -> ());
    if tty || frame = frames then
      render ~plain ~title ~plan ~frame ~frames ~period ~prev:!prev ~blame
        snap;
    prev := Some snap
  done

(* [title] names the workload in the header: "chaos" for the hot set,
   "serve[PROFILE]" for the serving path. *)
let run ~title ~workload ~algo ~scenario ~seed ~domains ~period ~frames
    ~plain ~telemetry ~telemetry_format =
  match Plan.make ~algo ~scenario ~seed ~domains () with
  | Error m ->
      Fmt.epr "error: %s@." m;
      exit 2
  | Ok plan ->
      let tel =
        Option.map
          (fun file -> Cli_common.telemetry_writer file telemetry_format)
          telemetry
      in
      (* Redrawing in place needs a terminal; piped output falls back to
         plain mode, and plain mode without a terminal renders only the
         final frame — a log or CI capture gets one coherent summary
         instead of interleaved partial frames. *)
      let tty = Unix.isatty Unix.stdout in
      let plain = plain || not tty in
      let reg = Tel.Registry.create () in
      let _, probe = Tel.Stm_probe.install reg in
      Fun.protect
        ~finally:(fun () -> Tm_stm.Stm.Obs.unsubscribe probe)
        (fun () ->
          Runner.with_session ~blame:true ~latency:true ~registry:reg
            ~workload plan
            (observe ~title ~plan ~period ~frames ~plain ~tel ~tty ~reg));
      Option.iter (fun (_, flush) -> flush ()) tel
