(* The serving path: P12 and the open-loop loadcurve P13
   (EXPERIMENTS.md). *)

open Harness
module Workload = Tm_serve.Workload
module Server = Tm_serve.Server

(* ------------------------------------------------------------------ *)
(* P12: the serving path.  Four gates: (a) the canonical serve document
   is byte-deterministic across runs; (b) a single-domain run conforms
   to the sequential-map specification exactly (store contents equal to
   folding [Store.spec_op] over the admitted stream); (c) hot-stripe
   flat-combining beats naive one-put-per-transaction commits on
   conflict work (aborts saved) at the top of the domain ladder —
   hardware-gated at 4 cores, since below that the hot stripe produces
   no combining pressure; (d) crash-holding-locks against the serving
   path still
   yields the per-algorithm Figure-2 verdicts.  The full ladder
   (batching on/off x domains) goes to BENCH_serve.json. *)

let p12_serve () =
  let module Store = Tm_serve.Store in
  section "P12" "tmserve: determinism, spec conformance, batching, chaos";
  let mk ?(algo = Stm.Algo.Tl2) ~batching ~domains () =
    (* Few keys and stripes concentrate the Zipf head onto genuinely
       hot stripes — the regime combining exists for. *)
    Server.config ~algo ~clients:20_000 ~ops:4 ~keys:64 ~stripes:4 ~batching
      ~profile:Workload.Write_heavy ~seed:42 ~domains ()
  in
  (* (a) Determinism. *)
  let cfg0 = mk ~batching:true ~domains:4 () in
  let j1 = Server.to_json (Server.run cfg0)
  and j2 = Server.to_json (Server.run cfg0) in
  check "canonical serve document is byte-deterministic" ~paper:true
    ~measured:(String.equal j1 j2);
  (* (b) Sequential-spec conformance: replay one domain's admitted
     stream both through the store and through the plain-array spec. *)
  let conforms =
    let cfg =
      Server.config ~clients:5_000 ~ops:4 ~keys:64 ~stripes:4
        ~batching:false ~profile:Workload.Mixed ~seed:7 ~domains:1 ()
    in
    let wl = Server.workload cfg in
    Stm.with_algo Stm.Algo.Tl2 (fun () ->
        let st = Store.create ~stripes:4 ~keys:64 () in
        let model = Array.make 64 0 in
        Server.iter_requests cfg wl ~domain:0
          ~f:(fun ~client:_ ~index:_ req ~admitted ->
            if admitted then begin
              let ops =
                match req with
                | Workload.Single op -> [ op ]
                | Workload.Txn ops -> ops
              in
              let got = Store.multi st ops in
              let want = List.map (Store.spec_op model) ops in
              assert (got = want)
            end);
        Store.dump st = model)
  in
  check "single-domain serve conforms to the sequential-map spec"
    ~paper:true ~measured:conforms;
  (* (c) Batching ladder, under both the coarse serializer and TL2.
     Both full ladders (batching on/off x domains) go to the trajectory
     file; the hardware-gated verdict is below. *)
  let ladder = [ 1; 2; 4 ] in
  let run_one ~algo ~batching ~domains =
    let cfg = mk ~algo ~batching ~domains () in
    let o = Server.run cfg in
    check
      (Fmt.str "%s x%d %s: journal/conservation invariants"
         (Stm.Algo.name algo) domains
         (if batching then "batched" else "naive"))
      ~paper:true
      ~measured:(o.Server.s_journal_ok && o.Server.s_conserved);
    o
  in
  let runs =
    List.concat_map
      (fun algo ->
        List.concat_map
          (fun domains ->
            List.map
              (fun batching ->
                (algo, domains, batching, run_one ~algo ~batching ~domains))
              [ false; true ])
          ladder)
      [ Stm.Algo.Global_lock; Stm.Algo.Tl2 ]
  in
  let kadm o = float_of_int o.Server.s_admitted /. o.Server.s_wall /. 1000. in
  Fmt.pr "    %-12s %-8s %-8s %10s %10s %10s %8s %12s@." "algo" "domains"
    "batching" "admitted" "commits" "aborts" "flushes" "kadm/s";
  List.iter
    (fun (algo, domains, batching, o) ->
      Fmt.pr "    %-12s %-8d %-8b %10d %10d %10d %8d %12.0f@."
        (Stm.Algo.name algo) domains batching o.Server.s_admitted
        o.Server.s_commits o.Server.s_aborts o.Server.s_flushes (kadm o))
    runs;
  let at ~algo ~batching ~domains =
    let _, _, _, o =
      List.find
        (fun (a, d, b, _) -> a = algo && d = domains && b = batching)
        runs
    in
    o
  in
  (* "Beats naive" is measured in wasted work, the same currency as the
     P9 separation: combining routes every put on a stripe through one
     committer, so the put-put conflict aborts that naive commits pay
     under contention vanish structurally.  Wall throughput is recorded
     alongside but not gated — on shared or overcommitted runners it
     measures the scheduler, not the protocol. *)
  let peak = List.fold_left max 1 ladder in
  let batched = at ~algo:Stm.Algo.Tl2 ~batching:true ~domains:peak
  and naive = at ~algo:Stm.Algo.Tl2 ~batching:false ~domains:peak in
  let batching_holds = batched.Server.s_aborts <= naive.Server.s_aborts in
  (* (d) Chaos against the serving path. *)
  let chaos_ok algo =
    match
      Tm_chaos.Plan.make ~algo ~scenario:"crash-holding-locks" ~seed:42
        ~domains:4 ()
    with
    | Error _ -> false
    | Ok plan ->
        let cfg =
          Server.config ~algo ~clients:64 ~ops:4 ~keys:64 ~stripes:4
            ~profile:Workload.Write_heavy ~seed:42 ~domains:4 ()
        in
        (Server.chaos_run plan cfg).Tm_chaos.Runner.o_ok
  in
  let chaos = List.map (fun a -> (a, chaos_ok a)) Stm.Algo.all in
  List.iter
    (fun (algo, ok) ->
      check
        (Fmt.str "crash-holding-locks verdicts hold on the serving path (%s)"
           (Stm.Algo.name algo))
        ~paper:true ~measured:ok)
    chaos;
  write_result ~what:"trajectory" "BENCH_serve.json"
    (Fmt.str
      "{\"experiment\":\"P12\",\"claim\":\"hot-stripe flat-combining beats \
       naive per-put commits on conflict work under a Zipfian write-heavy \
       load\",\
       \"cores\":%d,\"profile\":\"write-heavy\",\"clients\":20000,\
       \"ops_per_client\":4,\"keys\":64,\"stripes\":4,\"seed\":42,\
       \"ladder\":[%s],\"runs\":[%s],\"determinism\":{\"holds\":%b},\
       \"spec_conformance\":{\"holds\":%b},\"batching\":{\
       \"algo\":\"tl2\",\"at_domains\":%d,\"batched_aborts\":%d,\
       \"naive_aborts\":%d,\
       \"batched_kadm_s\":%.1f,\"naive_kadm_s\":%.1f,\"holds\":%b},\
       \"chaos\":[%s]}"
      cores
      (String.concat "," (List.map string_of_int ladder))
      (String.concat ","
         (List.map
            (fun (algo, domains, batching, o) ->
              Fmt.str
                "{\"algo\":%S,\"domains\":%d,\"batching\":%b,\"requests\":%d,\
                 \"admitted\":%d,\"shed\":%d,\"batched_puts\":%d,\
                 \"wall_s\":%.4f,\"kadm_per_s\":%.1f,\"commits\":%d,\
                 \"aborts\":%d,\"flushes\":%d}"
                (Stm.Algo.name algo) domains batching o.Server.s_requests
                o.Server.s_admitted o.Server.s_shed o.Server.s_batched
                o.Server.s_wall (kadm o) o.Server.s_commits o.Server.s_aborts
                o.Server.s_flushes)
            runs))
      (String.equal j1 j2) conforms peak batched.Server.s_aborts
      naive.Server.s_aborts (kadm batched) (kadm naive) batching_holds
      (String.concat ","
         (List.map
            (fun (algo, ok) ->
              Fmt.str "{\"algo\":%S,\"ok\":%b}" (Stm.Algo.name algo) ok)
            chaos)));
  on_four_cores ~id:"P12" ~what:"batching"
    ~why:"the hot stripe cannot produce combining pressure here" (fun () ->
      check
        (Fmt.str
           "flat-combining beats naive on conflict work at %d domains \
            (%d vs %d aborts)"
           peak batched.Server.s_aborts naive.Server.s_aborts)
        ~paper:true ~measured:batching_holds)

(* ------------------------------------------------------------------ *)
(* P13: open-loop load observability.  Three claims.  (a) The canonical
   loadcurve document is a pure function of its plan (byte-identical
   across runs; the CLI gate additionally compares across --domains).
   (b) Coordinated omission: against a server stalled by a crash holding
   commit locks, the closed-loop p99 (completed samples only) freezes
   while the open-loop p99 (censored in-flight arrivals folded in) grows
   monotonically with the stall — the exact blindness the recorder
   exists to remove.  (c) On >= 4 cores, the measured knee of the
   global-lock serializer does not exceed tl2's on the conflict-heavy
   profile.  The trajectory goes to BENCH_loadcurve.json. *)

let p13_loadcurve () =
  let module Lc = Tm_serve.Loadcurve in
  let module Lrec = Tm_telemetry.Latency_recorder in
  section "P13" "open-loop loadcurve: determinism, coordinated omission, knee";
  let ladder =
    [ 5_000.; 10_000.; 20_000.; 40_000.; 80_000.; 160_000.; 320_000. ]
  in
  let cfg =
    Server.config ~clients:4_000 ~ops:2 ~keys:64
      ~profile:Workload.Mixed ~seed:42 ~domains:1 ()
  in
  (* (a) Determinism of the canonical model. *)
  let curve = Lc.run ~kind:Tm_serve.Arrival.Poisson ~ladder cfg in
  let j1 = Lc.to_json curve
  and j2 = Lc.to_json (Lc.run ~kind:Tm_serve.Arrival.Poisson ~ladder cfg) in
  let deterministic = String.equal j1 j2 in
  check "canonical loadcurve document is byte-deterministic" ~paper:true
    ~measured:deterministic;
  let model_knee = Lc.knee (Lc.curve_xy curve) in
  check "model knee lies inside the swept ladder" ~paper:true
    ~measured:(model_knee > List.hd ladder
              && model_knee < List.nth ladder (List.length ladder - 1));
  (* (b) The coordinated-omission gate: strand the serving path under a
     crash that holds the global serializer, then watch both p99s. *)
  let co_samples =
    match
      Tm_chaos.Plan.make ~algo:Stm.Algo.Global_lock
        ~scenario:"crash-holding-locks" ~seed:42 ~domains:4 ()
    with
    | Error _ -> []
    | Ok plan ->
        let ccfg =
          Server.config ~algo:Stm.Algo.Global_lock ~clients:64 ~ops:4
            ~keys:64 ~stripes:4 ~profile:Workload.Write_heavy ~seed:42
            ~domains:4 ()
        in
        Tm_chaos.Runner.with_session ~latency:true
          ~workload:(Server.chaos_workload ccfg) plan (fun ses ->
            let r = Option.get (Tm_chaos.Runner.session_latency ses) in
            (* Crash onset is a few hundred ops in (microseconds); after
               the warmup the whole peer set is stranded. *)
            Unix.sleepf 0.08;
            List.map
              (fun _ ->
                let now = Lrec.now_ns () in
                let s =
                  ( Lrec.open_quantile r ~now 0.99,
                    Lrec.closed_quantile r 0.99,
                    Lrec.oldest_age r ~now )
                in
                Unix.sleepf 0.06;
                s)
              [ 0; 1; 2 ])
  in
  let co_open = List.map (fun (o, _, _) -> o) co_samples
  and co_closed = List.map (fun (_, c, _) -> c) co_samples
  and co_ages = List.map (fun (_, _, a) -> a) co_samples in
  let open_grows =
    match co_open with [ o1; o2; o3 ] -> o1 < o2 && o2 < o3 | _ -> false
  in
  let closed_flat =
    match co_closed with [ c1; _; c3 ] -> c1 = c3 | _ -> false
  in
  let ages_grow =
    match co_ages with [ a1; a2; a3 ] -> a1 < a2 && a2 < a3 | _ -> false
  in
  check "stalled server: open-loop p99 grows monotonically" ~paper:true
    ~measured:open_grows;
  check "stalled server: closed-loop p99 stays flat (the blindness)"
    ~paper:true ~measured:closed_flat;
  check "stalled server: oldest in-flight age grows monotonically"
    ~paper:true ~measured:ages_grow;
  (* (c) Measured knees, hardware-gated: on one oversubscribed core the
     spin-paced executors measure the OS scheduler, not the server. *)
  let mladder = [ 25_000.; 50_000.; 100_000.; 200_000.; 400_000. ] in
  let measured_ran = cores >= 4 in
  let knee_of algo =
    let mcfg =
      Server.config ~algo ~clients:4_000 ~ops:2 ~keys:64
        ~profile:Workload.Mixed ~seed:42 ~domains:4 ()
    in
    let ms = Lc.measure ~kind:Tm_serve.Arrival.Poisson ~ladder:mladder mcfg in
    List.iter (fun m -> Fmt.pr "    %s %a@." (Stm.Algo.name algo) Lc.pp_mpoint m) ms;
    Lc.knee (Lc.measure_xy ms)
  in
  let knee_gl, knee_tl2, knee_holds =
    if measured_ran then begin
      let kg = knee_of Stm.Algo.Global_lock in
      let kt = knee_of Stm.Algo.Tl2 in
      (kg, kt, kg <= kt)
    end
    else (0.0, 0.0, true)
  in
  on_four_cores ~id:"P13" ~what:"knee"
    ~why:"the measured knee would gauge the OS scheduler" (fun () ->
      check
        (Fmt.str
           "global-lock knee (%.0f) does not exceed tl2 knee (%.0f) on the \
            conflict-heavy profile"
           knee_gl knee_tl2)
        ~paper:true ~measured:knee_holds);
  let ints l = String.concat "," (List.map string_of_int l) in
  write_result ~what:"trajectory" "BENCH_loadcurve.json"
    (Fmt.str
      "{\"experiment\":\"P13\",\"claim\":\"open-loop measurement exposes \
       the stalls closed-loop latency hides, and the loadcurve knee orders \
       global-lock at or below tl2 under conflict\",\
       \"cores\":%d,\"profile\":\"mixed\",\"clients\":4000,\
       \"ops_per_client\":2,\"seed\":42,\
       \"determinism\":{\"holds\":%b},\
       \"model\":{\"knee\":%.1f,\"rungs\":[%s]},\
       \"co\":{\"scenario\":\"crash-holding-locks\",\"algo\":\"global-lock\",\
       \"open_p99_ns\":[%s],\"closed_p99_ns\":[%s],\"oldest_age_ns\":[%s],\
       \"open_grows\":%b,\"closed_flat\":%b},\
       \"measured\":{\"ran\":%b,\"ladder\":[%s],\"knee_global_lock\":%.1f,\
       \"knee_tl2\":%.1f,\"holds\":%b}}"
      cores deterministic model_knee
      (String.concat ","
         (List.map
            (fun (p : Lc.point) ->
              Fmt.str
                "{\"rate\":%.1f,\"achieved\":%.1f,\"shed_fraction\":%.6f,\
                 \"sojourn_p99_ns\":%d}"
                p.Lc.p_rate p.Lc.p_achieved (Lc.shed_fraction p)
                p.Lc.p_sojourn.Lc.q99)
            curve.Lc.v_points))
      (ints co_open) (ints co_closed) (ints co_ages) open_grows closed_flat
      measured_ran
      (String.concat "," (List.map (Fmt.str "%.0f") mladder))
      knee_gl knee_tl2 knee_holds)
