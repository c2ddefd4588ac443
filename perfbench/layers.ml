(* The traced run: per-layer metrics.  Each one times or counts calls
   into one layer's public functions from here, outside the layer, or
   reads the layer ledger's replay (see [Ledger]).  End-to-end numbers
   never come from this run. *)

module Stm = Tm_stm.Stm
module Core = Tm_stm.Stm_core
module Server = Tm_serve.Server
module Store = Tm_serve.Store
module Workload = Tm_serve.Workload
module Zipf = Tm_serve.Zipf
module Arrival = Tm_serve.Arrival
module I = Tm_telemetry.Instrument
module Recorder = Tm_telemetry.Latency_recorder
module Sweep = Tm_sim.Sweep

let m = E2e.m
let word_bytes = float_of_int (Sys.word_size / 8)

(* ns and words per call of [f] on the calling domain: the median of
   [reps] batches of [n / reps] calls. *)
let per_call ?(reps = 5) ~n f =
  let k = max 1 (n / reps) in
  let ts = ref [] and ws = ref [] in
  for _ = 1 to reps do
    let w0 = Probe.domain_words () in
    let t0 = Probe.now_ns () in
    for _ = 1 to k do
      ignore (Sys.opaque_identity (f ()))
    done;
    let t1 = Probe.now_ns () in
    let w1 = Probe.domain_words () in
    ts := (float_of_int (t1 - t0) /. float_of_int k) :: !ts;
    ws := ((w1 -. w0) /. float_of_int k) :: !ws
  done;
  (Stats.median !ts, Stats.median !ws)

let ns_words name ~n f =
  let ns, w = per_call ~n f in
  [ m (name ^ ".ns") "ns" ns; m (name ^ ".words") "words" w ]

(* {2 Stm facade} *)

let facade () =
  Stm.with_algo Stm.Algo.Tl2 @@ fun () ->
  let empty () = Stm.atomically (fun () -> ()) in
  let ns, w = per_call ~n:1_000_000 empty in
  (* Both domains at once: the facade's shared commit counter is the
     contended part. *)
  let calls = 1_000_000 in
  let go = Atomic.make false in
  let each () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let t0 = Probe.now_ns () in
    for _ = 1 to calls do
      empty ()
    done;
    Probe.now_ns () - t0
  in
  let ds = List.init 2 (fun _ -> Domain.spawn each) in
  Atomic.set go true;
  let ns2 =
    List.fold_left (fun a d -> a + Domain.join d) 0 ds |> float_of_int
  in
  [
    m "stm.atomically_empty.ns" "ns" ns;
    m "stm.atomically_empty.words" "words" w;
    m "stm.atomically_empty_2dom.ns" "ns" (ns2 /. float_of_int (2 * calls));
  ]

(* {2 Cores, called directly through [Stm_core.S]} *)

let core_rmw20 (module C : Core.S) =
  let tvs = Array.init 20 (fun _ -> Core.tvar 0) in
  per_call ~n:100_000 (fun () ->
      let t = C.begin_ () in
      for i = 0 to 19 do
        C.write t tvs.(i) (C.read t tvs.(i) + 1)
      done;
      C.commit t)

let cores () =
  let module T = Tm_stm.Stm_tl2 in
  let tvs = Array.init 20 (fun _ -> Core.tvar 0) in
  let reads k () =
    let t = T.begin_ () in
    for i = 0 to k - 1 do
      ignore (Sys.opaque_identity (T.read t tvs.(i)))
    done;
    T.commit t
  in
  let writes k () =
    let t = T.begin_ () in
    for i = 0 to k - 1 do
      T.write t tvs.(i) i
    done;
    T.commit t
  in
  let r1, r1w = per_call ~n:1_000_000 (reads 1) in
  let r20, r20w = per_call ~n:100_000 (reads 20) in
  let _, w1w = per_call ~n:1_000_000 (writes 1) in
  let _, w20w = per_call ~n:100_000 (writes 20) in
  (* The commit alone, of a 20-write transaction. *)
  let commit_ns =
    let n = 100_000 and total = ref 0 in
    for _ = 1 to n do
      let t = T.begin_ () in
      for i = 0 to 19 do
        T.write t tvs.(i) i
      done;
      let a = Probe.now_ns () in
      T.commit t;
      total := !total + (Probe.now_ns () - a)
    done;
    float_of_int !total /. float_of_int n
  in
  let zoo =
    List.concat_map
      (fun (name, core) ->
        let ns, w = core_rmw20 core in
        [
          m ("core." ^ name ^ ".rmw20.ns") "ns" ns;
          m ("core." ^ name ^ ".rmw20.words") "words" w;
        ])
      [
        ("tl2", (module Tm_stm.Stm_tl2 : Core.S));
        ("global-lock", (module Tm_stm.Stm_glock : Core.S));
        ("dstm", (module Tm_stm.Stm_dstm : Core.S));
        ("norec", (module Tm_stm.Stm_norec : Core.S));
      ]
  in
  let _, tvar_words = per_call ~n:100_000 (fun () -> Core.tvar 0) in
  [
    m "core.tl2.read_r1.ns" "ns" r1;
    m "core.tl2.read_r20.ns" "ns" (r20 /. 20.);
    m "core.tl2.read.words" "words" ((r20w -. r1w) /. 19.);
    m "core.tl2.write.words" "words" ((w20w -. w1w) /. 19.);
    m "core.tl2.commit_w20.ns" "ns" commit_ns;
  ]
  @ zoo
  @ [ m "stm_core.tvar.bytes" "B" (tvar_words *. word_bytes) ]

(* {2 Tm_serve} *)

let store () =
  Stm.with_algo Stm.Algo.Tl2 @@ fun () ->
  let keys = 1 lsl 20 in
  Gc.full_major ();
  let w0 = Probe.words () in
  let big = Store.create ~keys () in
  let bytes =
    (Probe.words () -. w0) *. word_bytes /. float_of_int keys
  in
  ignore (Sys.opaque_identity big);
  let st = Store.create ~keys:1024 () in
  let i = ref 0 in
  let next () =
    i := (!i + 2) land 1023;
    !i
  in
  let txn20 = List.init 20 (fun k -> Store.O_add ((k * 37) land 1023, 1)) in
  [ m "store.bytes_per_key" "B" bytes ]
  @ ns_words "store.get_txn" ~n:1_000_000 (fun () ->
        Stm.atomically (fun () -> Store.exec_op st (Store.O_get (next ()))))
  @ ns_words "store.put_txn" ~n:1_000_000 (fun () ->
        Stm.atomically (fun () -> Store.exec_op st (Store.O_put (next (), 1))))
  @ ns_words "store.txn20" ~n:100_000 (fun () ->
        Stm.atomically (fun () ->
            List.iter (fun op -> ignore (Store.exec_op st op)) txn20))

let workload ~seed =
  let request profile =
    let wl = Workload.create ~profile ~seed ~keys:1024 () in
    let i = ref 0 in
    per_call ~n:1_000_000 (fun () ->
        incr i;
        Workload.request wl ~client:(!i land 8191) ~index:(!i lsr 13))
  in
  let per_profile =
    List.concat_map
      (fun p ->
        let ns, w = request p in
        let name = "workload.request." ^ Workload.profile_name p in
        [ m (name ^ ".ns") "ns" ns; m (name ^ ".words") "words" w ])
      [ Workload.Read_mostly; Workload.Write_heavy; Workload.Long_txn ]
  in
  let z = Zipf.create ~n:512 () and g = Tm_sim.Prng.create seed in
  per_profile @ ns_words "zipf.sample" ~n:1_000_000 (fun () -> Zipf.sample z g)

(* Admission: the whole request stream of one domain with a no-op
   callback, less the generation cost measured above. *)
let admission ~seed ~request_ns =
  let cfg =
    E2e.serve_config E2e.serve_read ~seed ~arrival_seed:seed ~domains:1
  in
  let wl = Server.workload cfg in
  let t0 = Probe.now_ns () in
  Server.iter_requests cfg wl ~domain:0
    ~f:(fun ~client:_ ~index:_ _ ~admitted:_ -> ());
  let ns =
    float_of_int (Probe.now_ns () - t0)
    /. float_of_int (Server.total_requests cfg)
  in
  [ m "server.admission.ns" "ns" (ns -. request_ns) ]

(* Combiner and arrival pacing: the open-loop write workload, half its
   population, with batching on and off, on two domains so that puts
   can meet in the combiner. *)
let open_loop ~seed ~arrival_seed =
  let run batching =
    Server.run
      (E2e.serve_config ~batching ~ops_scale:0.5 E2e.serve_write_open ~seed
         ~arrival_seed ~domains:2)
  in
  let on = run true and off = run false in
  let y = Option.get on.Server.s_open in
  let q s p = Stats.hires_q s p /. 1e3 in
  let cursor =
    Arrival.cursor
      (Arrival.make ~kind:Arrival.Poisson ~rate:1e5 ~seed:arrival_seed)
  in
  let next_ns, _ = per_call ~n:1_000_000 (fun () -> Arrival.next cursor) in
  let checks =
    [
      ("combiner-on", Checks.serve_outcome on);
      ("combiner-off", Checks.serve_outcome off);
    ]
  in
  ( [
      m "server.combine_ratio" "puts/flush"
        (float_of_int on.Server.s_batched
        /. float_of_int (max 1 on.Server.s_flushes));
      m "server.flushes" "count" (float_of_int on.Server.s_flushes);
      m "server.nobatch.sojourn_p50_us" "us"
        (E2e.open_sojourn_p50_ns off /. 1e3);
      m "arrival.next.ns" "ns" next_ns;
      m "arrival.queueing_p50_us" "us" (q y.Recorder.y_queueing 0.5);
      m "arrival.queueing_p99_us" "us" (q y.Recorder.y_queueing 0.99);
      m "arrival.service_p50_us" "us" (q y.Recorder.y_service 0.5);
      m "arrival.sojourn_p99_us" "us" (q y.Recorder.y_sojourn 0.99);
      m "arrival.sojourn_p999_us" "us" (q y.Recorder.y_sojourn 0.999);
      m "arrival.samples" "count" (float_of_int y.Recorder.y_sojourn.I.count);
    ],
    checks )

(* {2 Tm_telemetry} *)

let telemetry () =
  let h = I.histogram () in
  let r = Recorder.create ~domains:1 () in
  ns_words "telemetry.observe" ~n:1_000_000 (fun () -> I.observe h 1000)
  @ [
      m "telemetry.recorder.ns" "ns"
        (fst
           (per_call ~n:1_000_000 (fun () ->
                let t = Probe.now_ns () in
                Recorder.mark r 0 ~sched:t;
                Recorder.complete r 0 ~start:t ~finish:t)));
      m "telemetry.now.ns" "ns" (fst (per_call ~n:1_000_000 Probe.now_ns));
    ]

(* {2 Tm_sim and Tm_safety} *)

let sim ~sweep_seed =
  let tl2 = Option.get (Tm_impl.Registry.find "tl2") in
  let spec =
    Tm_sim.Runner.spec ~nprocs:3 ~steps:E2e.sweep_steps ~seed:sweep_seed
      ~sched:Tm_sim.Runner.Uniform ()
  in
  let step_ns =
    let steps = ref 0 and t0 = Probe.now_ns () in
    for _ = 1 to 50 do
      steps := !steps + (Tm_sim.Runner.run tl2 spec).Tm_sim.Runner.steps_taken
    done;
    float_of_int (Probe.now_ns () - t0) /. float_of_int !steps
  in
  let grid = E2e.sweep_grid ~sweep_seed in
  let runs = float_of_int (List.length grid) in
  let timed f =
    let t0 = Probe.now_ns () in
    let r = f () in
    (r, float_of_int (Probe.now_ns () - t0) /. 1e9)
  in
  let results, j1 = timed (fun () -> Sweep.run grid) in
  let _, j2 =
    timed (fun () ->
        Tm_sim.Pool.with_pool ~jobs:2 (fun pool -> Sweep.run ~pool grid))
  in
  let _, json_s = timed (fun () -> Sweep.to_json results) in
  let n = ref 0 in
  let (), mc_s =
    timed (fun () ->
        Sweep.Exhaustive.run tl2 ~nprocs:2 ~ntvars:1
          ~invocations:E2e.mc_invocations ~depth:E2e.mc_depth
          ~on_history:(fun _ _ -> incr n))
  in
  [
    m "sim.runner.ns_per_step" "ns" step_ns;
    m "sim.sweep.runs_s_j1" "1/s" (runs /. j1);
    m "sim.sweep.runs_s_j2" "1/s" (runs /. j2);
    m "sim.pool.speedup" "x" (j1 /. j2);
    m "sim.exhaustive.histories_s" "1/s" (float_of_int !n /. mc_s);
    m "sim.sweep.to_json.ms" "ms" (json_s *. 1e3);
  ]

let pipeline_ledger ~sweep_seed =
  let p = Ledger.pipeline ~sweep_seed in
  let self l = p.Ledger.pl_self_ns.(l) in
  let checks =
    [
      ( "traced-model-check",
        Checks.model_check ~expected:Checks.tl2_depth10_histories
          ~histories:p.Ledger.pl_histories ~non_opaque:p.Ledger.pl_non_opaque );
      ( "pipeline-spans",
        if p.Ledger.pl_dropped = 0 then Ok ()
        else Error "pipeline spans dropped" );
    ]
  in
  ( Array.to_list
      (Array.mapi
         (fun l name ->
           m ("ledger.pipeline." ^ name ^ ".self_ms") "ms" (self l /. 1e6))
         Ledger.pipeline_layers)
    @ [
        m "safety.monitor.us_per_history" "us"
          (self Ledger.l_monitor /. 1e3 /. float_of_int p.Ledger.pl_histories);
        m "safety.opacity.fallbacks" "count"
          (float_of_int p.Ledger.pl_fallbacks);
        m "safety.opacity.ms" "ms" (self Ledger.l_opacity /. 1e6);
      ],
    checks )

(* {2 The serve ledger} *)

(* One serve workload's ledger: traced and untraced replays of a
   fifth of its population at one domain, a traced replay at two, an
   untraced replay at two beside a [Server.run] of the same stream. *)
let serve_ledger ~spans_dir ~short sv ~seed ~arrival_seed =
  let cfg domains =
    E2e.serve_config ~ops_scale:0.2 sv ~seed ~arrival_seed ~domains
  in
  let c1 = cfg 1 and c2 = cfg 2 in
  (* A full collection before each replay frees the previous one's
     table, so a workload holds one table at a time. *)
  let replay ~traced cfg =
    Gc.full_major ();
    Ledger.replay ~traced cfg
  in
  let untraced1 = replay ~traced:false c1 in
  let traced1 = replay ~traced:true c1 in
  let l1 = Ledger.ledger_of traced1 in
  Option.iter
    (fun dir ->
      Ledger.write_tsv
        (Filename.concat dir (short ^ ".tsv"))
        ~layers:Ledger.serve_layers traced1.Ledger.rp_spans.(0))
    spans_dir;
  let traced2 = replay ~traced:true c2 in
  let l2 = Ledger.ledger_of traced2 in
  let untraced2 = replay ~traced:false c2 in
  Gc.full_major ();
  let served = Server.run c2 in
  let spec = Ledger.spec_dump c1 in
  let checks =
    [
      (short ^ "-reconcile", Ledger.reconcile l1 traced1);
      (short ^ "-spec", Checks.matches_spec ~spec traced1.Ledger.rp_dump);
      (short ^ "-conserved-2d", Checks.conserved_dump traced2.Ledger.rp_dump);
      (short ^ "-server", Checks.serve_outcome served);
    ]
  in
  let p = "ledger." ^ short ^ "." in
  let kreq (r : Ledger.replay) =
    float_of_int r.Ledger.rp_admitted /. r.Ledger.rp_ns *. 1e6
  in
  let layer_metrics =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i name ->
              [
                m (p ^ name ^ ".self_ns") "ns" l1.Ledger.lg_self_ns.(i);
                m (p ^ name ^ ".words") "words" l1.Ledger.lg_words.(i);
                m (p ^ name ^ ".self_ns_2d") "ns" l2.Ledger.lg_self_ns.(i);
              ])
            Ledger.serve_layers))
  in
  let attempts =
    float_of_int (served.Server.s_commits + served.Server.s_aborts)
    /. float_of_int (max 1 served.Server.s_commits)
  in
  ( layer_metrics
    @ [
        m (p ^ "tracing_overhead") "x"
          (traced1.Ledger.rp_ns /. untraced1.Ledger.rp_ns);
        m (p ^ "replay_kreq_s") "kreq/s" (kreq untraced2);
        m (p ^ "server_kreq_s") "kreq/s"
          (float_of_int served.Server.s_admitted
          /. served.Server.s_wall /. 1e3);
        m (p ^ "attempts_per_commit") "x" attempts;
      ],
    checks )

(* All per-layer metrics and the traced run's checks; with [spans_dir],
   each serve workload's one-domain traced spans are written there. *)
let run ?spans_dir ~seed ~arrival_seed ~sweep_seed () =
  let wl = workload ~seed in
  let request_ns =
    (List.find (fun x -> x.E2e.m_name = "workload.request.read-mostly.ns") wl)
      .E2e.m_value
  in
  let ol, ol_checks = open_loop ~seed ~arrival_seed in
  let ledgers =
    List.map
      (fun (short, sv) -> serve_ledger ~spans_dir ~short sv ~seed ~arrival_seed)
      [
        ("read", E2e.serve_read);
        ("longtxn", E2e.serve_longtxn);
        ("writeopen", E2e.serve_write_open);
      ]
  in
  let pl, pl_checks = pipeline_ledger ~sweep_seed in
  let metrics =
    facade () @ cores () @ store () @ wl
    @ admission ~seed ~request_ns
    @ ol @ telemetry () @ sim ~sweep_seed
    @ List.concat_map fst ledgers
    @ pl
  in
  (metrics, ol_checks @ List.concat_map snd ledgers @ pl_checks)
