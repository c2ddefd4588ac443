(* The end-to-end runs: what a user of the service or of the paper
   pipeline would see.  Each workload repeats a fixed-size job (one
   [Server.run] over a fixed request population, or one stage of the
   pipeline) until the run's time is spent, and reports medians over the jobs, so
   a burst of hypervisor steal costs one job rather than the run.

   The timed jobs run on one domain: on a VM with as many vCPUs as a
   second domain would need, the second domain measures whether the
   hypervisor runs both vCPUs at once, and every stop-the-world minor
   collection waits for the slower one.  On a shared VM the hypervisor
   also steals time, and the host's speed swings from minute to minute.
   So wall-clock times count only the unstolen part of their job (from
   /proc/stat), and every time is scaled by the reference pass timed
   around its job (see [Calib]); the row beside the result carries the
   same medians as measured. *)

module Server = Tm_serve.Server
module Workload = Tm_serve.Workload
module Arrival = Tm_serve.Arrival
module Sweep = Tm_sim.Sweep
module Pool = Tm_sim.Pool
module Monitor = Tm_safety.Monitor
module Opacity = Tm_safety.Opacity
module Event = Tm_history.Event

type metric = { m_name : string; m_unit : string; m_value : float }

type result = {
  r_metrics : metric list;
  r_measured : metric list;  (** the same medians, uncorrected *)
  r_checks : (string * (unit, string) Stdlib.result) list;
  r_attempted : int;
  r_failed : int;
  r_jobs : int;
  r_steal : float;  (** steal share over the timed jobs *)
}

(* {2 Serve workloads} *)

type serve = {
  sv_profile : Workload.profile;
  sv_keys : int;
  sv_clients : int;
  sv_ops : int;  (** requests per client: the population is clients * ops *)
  sv_queue_cap : int;
  sv_rate : float option;  (** open-loop Poisson arrivals per second *)
}

(* 90% one-key gets on a cache-resident table: the fixed per-request
   path (facade, commit counter, generation, telemetry) dominates. *)
let serve_read =
  {
    sv_profile = Workload.Read_mostly;
    sv_keys = 1024;
    sv_clients = 10_000;
    sv_ops = 20;
    sv_queue_cap = 2048;
    sv_rate = None;
  }

(* 20-op transactions over 4,096 keys (about 1.2 MB of t-variables, so
   the table stays in the caches and the core's own work shows, not the
   neighbours' memory traffic): read/write-set upkeep, validation,
   locking and publishing dominate.  The default admission capacity would shed
   about half of this profile; the capacity is raised so that no request
   is refused and every generated request is served. *)
let serve_longtxn =
  {
    sv_profile = Workload.Long_txn;
    sv_keys = 4096;
    sv_clients = 10_000;
    sv_ops = 4;
    sv_queue_cap = 1 lsl 40;
    sv_rate = None;
  }

(* Half puts through the flat combiner, paced by an open-loop Poisson
   clock at about a tenth of closed-loop capacity; every request passes
   the arrival pacing and the latency recorder.  Measured by the traced
   run only. *)
let serve_write_open =
  {
    sv_profile = Workload.Write_heavy;
    sv_keys = 1024;
    sv_clients = 10_000;
    sv_ops = 10;
    sv_queue_cap = 1 lsl 40;
    sv_rate = Some 100_000.;
  }

(* Executor domains of a timed job. *)
let domains = 1

let serve_config ?(batching = true) ?(ops_scale = 1.0) sv ~seed ~arrival_seed
    ~domains =
  let arrival =
    Option.map
      (fun rate -> Arrival.make ~kind:Arrival.Poisson ~rate ~seed:arrival_seed)
      sv.sv_rate
  in
  Server.config ?arrival ~clients:sv.sv_clients
    ~ops:(max 1 (int_of_float (float_of_int sv.sv_ops *. ops_scale)))
    ~keys:sv.sv_keys ~batching ~queue_cap:sv.sv_queue_cap
    ~profile:sv.sv_profile ~seed ~domains ()

(* Median sojourn from the scheduled arrival of a paced run, in ns. *)
let open_sojourn_p50_ns (o : Server.outcome) =
  let y = Option.get o.Server.s_open in
  Stats.hires_q y.Tm_telemetry.Latency_recorder.y_sojourn 0.5

let m name unit value = { m_name = name; m_unit = unit; m_value = value }

(* How a job's times are corrected: [scale] from the reference points
   around it, and [steal], the share of the CPU time wanted during the
   job that the hypervisor stole. *)
type weight = { scale : float; steal : float }

(* Runs [job] repeatedly for [seconds] (at least [min_jobs] times),
   with a reference point before the first job and after each, and a
   full major GC before each point, outside every timing.  Returns each
   job's result with its weight, and the steal share over the loop. *)
let timed_jobs ?(min_jobs = 3) ~seconds job =
  ignore (Sys.opaque_identity (Calib.pass ()));
  Gc.full_major ();
  let t_end = Unix.gettimeofday () +. seconds in
  let run_mark = Probe.steal_mark () in
  let before = ref (Calib.point ()) in
  let jobs = ref [] in
  while List.length !jobs < min_jobs || Unix.gettimeofday () < t_end do
    let mark = Probe.steal_mark () in
    let j = job () in
    let steal = Probe.steal_share mark in
    Gc.full_major ();
    let after = Calib.point () in
    jobs := (j, { scale = Calib.between !before after; steal }) :: !jobs;
    before := after
  done;
  (List.rev !jobs, Probe.steal_share run_mark)

(* How a time measured during a job is corrected.  A CPU time is
   multiplied by its job's scale; a wall-clock time is first cut to the
   unstolen part (times one minus the job's steal share), then scaled; a
   rate over wall time is divided accordingly; counts stay as
   measured. *)
type kind = Wall | Cpu | Rate | Count

let factor kind w =
  match kind with
  | Wall -> (1.0 -. w.steal) *. w.scale
  | Cpu -> w.scale
  | Rate -> 1.0 /. ((1.0 -. w.steal) *. w.scale)
  | Count -> 1.0

(* The median of [f] over [jobs], corrected or as measured. *)
let median_of ~corrected kind f jobs =
  Stats.median
    (List.map
       (fun (j, w) -> f j *. if corrected then factor kind w else 1.0)
       jobs)

(* Each metric of [specs] as a median over jobs, corrected and as
   measured. *)
let medians jobs specs =
  let one corrected (name, unit, kind, f) =
    m name unit (median_of ~corrected kind f jobs)
  in
  (List.map (one true) specs, List.map (one false) specs)

type job = {
  j_outcome : Server.outcome;
  j_total_s : float;  (** the whole [Server.run], set-up included *)
  j_words : float;  (** allocated over the whole [Server.run] *)
  j_serve_cpu_s : float;  (** between the executors' start and join *)
  j_serve_words : float;
}

(* One [Server.run], with process CPU time and allocation read at the
   two telemetry scrapes that bracket the executors. *)
let serve_job cfg =
  let marks = ref [] in
  let on_sample _ = marks := (Probe.cpu_s (), Probe.words ()) :: !marks in
  let w0 = Probe.words () in
  let t0 = Probe.now_ns () in
  let o = Server.run ~on_sample cfg in
  let t1 = Probe.now_ns () in
  let w1 = Probe.words () in
  let cpu, words =
    match !marks with
    | [ (c1, w1); (c0, w0) ] -> (c1 -. c0, w1 -. w0)
    | _ -> failwith "Server.run scraped other than twice"
  in
  {
    j_outcome = o;
    j_total_s = float_of_int (t1 - t0) /. 1e9;
    j_words = w1 -. w0;
    j_serve_cpu_s = cpu;
    j_serve_words = words;
  }

let run_serve sv ~seed ~arrival_seed ~seconds =
  let cfg = serve_config sv ~seed ~arrival_seed ~domains in
  let reference = ref None in
  let checks = ref [] in
  let failed = ref 0 and attempted = ref 0 in
  let check_job j =
    let o = j.j_outcome in
    let doc = Server.to_json o in
    let r =
      match Checks.serve_outcome o with
      | Error _ as e -> e
      | Ok () -> (
          match !reference with
          | None ->
              reference := Some doc;
              Ok ()
          | Some reference -> Checks.canonical_equal ~reference doc)
    in
    checks := ("serve", r) :: !checks;
    attempted := !attempted + o.Server.s_requests;
    failed :=
      !failed
      + (match r with Ok () -> o.Server.s_shed | Error _ -> o.Server.s_requests)
  in
  (* Warm-up: one untimed job fills caches and sizes the heap. *)
  check_job (serve_job cfg);
  let jobs, steal =
    timed_jobs ~seconds (fun () ->
        let j = serve_job cfg in
        check_job j;
        j)
  in
  let adm j = float_of_int j.j_outcome.Server.s_admitted in
  let metrics, measured =
    medians jobs
      [
        ( "throughput_kreq_s",
          "kreq/s",
          Rate,
          fun j -> adm j /. j.j_outcome.Server.s_wall /. 1e3 );
        ("cpu_us_per_req", "us", Cpu, fun j -> j.j_serve_cpu_s *. 1e6 /. adm j);
        ( "alloc_words_per_req",
          "words",
          Count,
          fun j -> j.j_serve_words /. adm j );
        ( "setup_s",
          "s",
          Wall,
          fun j -> j.j_total_s -. j.j_outcome.Server.s_wall );
        ("pipeline_s", "s", Wall, fun j -> j.j_total_s);
        ("alloc_mwords", "Mwords", Count, fun j -> j.j_words /. 1e6);
      ]
  in
  let heap = m "heap_peak_mb" "MB" (Probe.heap_peak_mb ()) in
  {
    r_metrics = metrics @ [ heap ];
    r_measured = measured;
    r_checks = List.rev !checks;
    r_attempted = !attempted;
    r_failed = !failed;
    r_jobs = List.length jobs;
    r_steal = steal;
  }

(* {2 The paper pipeline} *)

let sweep_steps = 4000
let sweep_seeds = 4

(* The whole zoo x the four fault patterns x [sweep_seeds] seeds. *)
let sweep_grid ~sweep_seed =
  Sweep.grid
    ~patterns:(Sweep.fault_patterns ~steps:sweep_steps ())
    ~seeds:(List.init sweep_seeds (fun i -> sweep_seed + i))
    ()

let mc_invocations = [ Event.Read 0; Event.Write (0, 1); Event.Try_commit ]
let mc_depth = 10

type mc = { histories : int; fallbacks : int; non_opaque : int }

(* The bounded model check of [tmlive model-check tl2 -d 10]: every
   history of every schedule goes through the linear-time monitor, and
   the exact checker decides the monitor's rare no-witness cases. *)
let model_check () =
  let tl2 = Option.get (Tm_impl.Registry.find "tl2") in
  let histories = ref 0 and fallbacks = ref 0 and non_opaque = ref 0 in
  Sweep.Exhaustive.run tl2 ~nprocs:2 ~ntvars:1 ~invocations:mc_invocations
    ~depth:mc_depth ~on_history:(fun h _ ->
      incr histories;
      match Monitor.run h with
      | Monitor.Accepted -> ()
      | Monitor.No_witness _ ->
          incr fallbacks;
          if not (Opacity.is_opaque h) then incr non_opaque);
  { histories = !histories; fallbacks = !fallbacks; non_opaque = !non_opaque }

(* A pipeline job is one of its two stages, so that each is corrected
   by the reference points closest to it. *)
type stage =
  | Swept of { doc : string; setups : float list }
      (** the sweep document, and set-ups timed after the sweep *)
  | Checked of mc

type pjob = {
  p_stage : stage;
  p_wall_s : float;
  p_cpu_s : float;
  p_words : float;
}

(* The pipeline's set-up: the grid and a 2-job pool, as [tmlive sweep]
   builds them.  Timed, then the pool is shut down untimed. *)
let pipeline_setup ~sweep_seed =
  let t0 = Probe.now_ns () in
  ignore (Sys.opaque_identity (sweep_grid ~sweep_seed));
  let pool = Pool.create ~jobs:2 in
  let t1 = Probe.now_ns () in
  Pool.shutdown pool;
  float_of_int (t1 - t0) /. 1e9

let setups_per_sweep = 10

(* [f ()], and a function that makes a job of a stage with the wall
   time, CPU time and words around [f]. *)
let timed f =
  let c0 = Probe.cpu_s () and w0 = Probe.words () in
  let t0 = Probe.now_ns () in
  let x = f () in
  let t1 = Probe.now_ns () in
  let cpu = Probe.cpu_s () -. c0 and words = Probe.words () -. w0 in
  ( x,
    fun stage ->
      {
        p_stage = stage;
        p_wall_s = float_of_int (t1 - t0) /. 1e9;
        p_cpu_s = cpu;
        p_words = words;
      } )

(* The stages in turn: build the grid, sweep it on the calling domain
   and render the sweep document, then time [setups_per_sweep] set-ups
   one by one; next time, the model check. *)
let pipeline_stages ~sweep_seed =
  let sweep_next = ref true in
  fun () ->
    let sweep = !sweep_next in
    sweep_next := not sweep;
    if sweep then begin
      let doc, job =
        timed (fun () -> Sweep.to_json (Sweep.run (sweep_grid ~sweep_seed)))
      in
      let setups =
        List.init setups_per_sweep (fun _ -> pipeline_setup ~sweep_seed)
      in
      job (Swept { doc; setups })
    end
    else
      let mc, job = timed model_check in
      job (Checked mc)

let run_pipeline ~sweep_seed ~seconds =
  let grid_runs = List.length (sweep_grid ~sweep_seed) in
  (* Warm-up and the reference for every job: the sequential sweep, and
     the same grid on a 2-job pool, which must render the same bytes. *)
  let sequential = Sweep.to_json (Sweep.run (sweep_grid ~sweep_seed)) in
  let pooled =
    let pool = Pool.create ~jobs:2 in
    let doc = Sweep.to_json (Sweep.run ~pool (sweep_grid ~sweep_seed)) in
    Pool.shutdown pool;
    doc
  in
  let jobs, steal =
    timed_jobs ~min_jobs:6 ~seconds (pipeline_stages ~sweep_seed)
  in
  let sweeps, model_checks =
    List.partition
      (fun (j, _) -> match j.p_stage with Swept _ -> true | Checked _ -> false)
      jobs
  in
  let stage_checks j =
    match j.p_stage with
    | Swept s ->
        [ ("sweep", Checks.sweep_deterministic ~sequential ~pooled:s.doc) ]
    | Checked mc ->
        [
          ( "model-check",
            Checks.model_check ~expected:Checks.tl2_depth10_histories
              ~histories:mc.histories ~non_opaque:mc.non_opaque );
        ]
  in
  let checks =
    ("sweep-pool", Checks.sweep_deterministic ~sequential ~pooled)
    :: List.concat_map (fun (j, _) -> stage_checks j) jobs
  in
  (* Items: sweep runs, then model-checked histories. *)
  let items j =
    match j.p_stage with
    | Swept _ -> grid_runs
    | Checked _ -> Checks.tl2_depth10_histories
  in
  let count f = List.fold_left (fun a (j, _) -> a + f j) 0 jobs in
  let failed j =
    if List.exists (fun (_, r) -> Result.is_error r) (stage_checks j) then
      items j
    else 0
  in
  (* A whole job is a sweep and a model check: the sum of the two
     stages' medians. *)
  let per_job = float_of_int (grid_runs + Checks.tl2_depth10_histories) in
  let sum ~corrected kind f =
    median_of ~corrected kind f sweeps
    +. median_of ~corrected kind f model_checks
  in
  let metrics corrected =
    let wall = sum ~corrected Wall (fun j -> j.p_wall_s) in
    let cpu = sum ~corrected Cpu (fun j -> j.p_cpu_s) in
    let words = sum ~corrected Count (fun j -> j.p_words) in
    [
      m "throughput_kreq_s" "kreq/s" (per_job /. wall /. 1e3);
      m "cpu_us_per_req" "us" (cpu *. 1e6 /. per_job);
      m "alloc_words_per_req" "words" (words /. per_job);
      m "pipeline_s" "s" wall;
      m "alloc_mwords" "Mwords" (words /. 1e6);
    ]
  in
  (* Set-up is a millisecond of domain spawning, too short for a steal
     share: the median over every set-up of the run, each scaled by its
     sweep's reference points. *)
  let setups scale =
    m "setup_s" "s"
      (Stats.median
         (List.concat_map
            (fun (j, w) ->
              match j.p_stage with
              | Swept s -> List.map (fun t -> t *. scale w) s.setups
              | Checked _ -> [])
            jobs))
  in
  let heap = m "heap_peak_mb" "MB" (Probe.heap_peak_mb ()) in
  {
    r_metrics = metrics true @ [ setups (fun w -> w.scale); heap ];
    r_measured = metrics false @ [ setups (fun _ -> 1.0) ];
    r_checks = checks;
    r_attempted = count items;
    r_failed = count failed;
    r_jobs = List.length jobs;
    r_steal = steal;
  }
