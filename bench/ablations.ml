(* Simulator ablations and scaling: P2a-P2d, P3, P4 and the zoo
   separation P9 (EXPERIMENTS.md). *)

open Tm_history
open Harness

(* ------------------------------------------------------------------ *)
(* P2a: contention-manager ablation / contention sweep. *)

let ablation () =
  section "P2a" "ablation: commits by contention level (3 procs, 4000 steps)";
  Fmt.pr "    %-18s %6s %6s %6s@." "TM" "x1" "x4" "x16";
  List.iter
    (fun entry ->
      let commits ntvars =
        let spec =
          Runner.spec ~nprocs:3 ~ntvars ~steps:4000 ~seed:7
            ~sched:Runner.Uniform ()
        in
        Runner.commit_total (Runner.run entry spec)
      in
      Fmt.pr "    %-18s %6d %6d %6d@." entry.Reg.entry_name (commits 1)
        (commits 4) (commits 16))
    Reg.all

(* ------------------------------------------------------------------ *)
(* P2c: scheduler ablation — the scheduler is part of the adversary, and
   it shows: deterministic lockstep starves processes that random or
   quantum scheduling lets through. *)

let scheduler_ablation () =
  section "P2c" "ablation: scheduler (commits / min per-process commits)";
  Fmt.pr "    %-18s %16s %16s %16s@." "TM" "round-robin" "uniform"
    "quantum-25";
  let run entry sched =
    let spec =
      Runner.spec ~nprocs:3 ~ntvars:2 ~steps:4000 ~seed:11 ~sched ()
    in
    let o = Runner.run entry spec in
    let per = Array.to_list o.Runner.commits |> List.tl in
    (Runner.commit_total o, List.fold_left min max_int per)
  in
  List.iter
    (fun entry ->
      let t1, m1 = run entry Runner.Round_robin in
      let t2, m2 = run entry Runner.Uniform in
      let t3, m3 = run entry (Runner.Quantum 25) in
      Fmt.pr "    %-18s %10d/%-5d %10d/%-5d %10d/%-5d@." entry.Reg.entry_name
        t1 m1 t2 m2 t3 m3)
    Reg.all

(* ------------------------------------------------------------------ *)
(* P2d: abort rate vs transaction length — optimistic designs pay more the
   longer the window between first read and commit; waiting designs trade
   aborts for defers. *)

let abort_rate_ablation () =
  section "P2d" "ablation: abort rate (%) by transaction length";
  Fmt.pr "    %-18s %6s %6s %6s %6s@." "TM" "len2" "len4" "len8" "len16";
  let rate entry len =
    let spec =
      Runner.spec ~nprocs:3 ~ntvars:4 ~steps:6000 ~seed:13
        ~sched:Runner.Uniform
        ~workload:(Tm_sim.Workload.read_heavy ~ntvars:4 ~reads:(len - 2))
        ()
    in
    let o = Runner.run entry spec in
    let c = Runner.commit_total o and a = Runner.abort_total o in
    if c + a = 0 then 0. else 100. *. float_of_int a /. float_of_int (c + a)
  in
  List.iter
    (fun entry ->
      Fmt.pr "    %-18s %6.1f %6.1f %6.1f %6.1f@." entry.Reg.entry_name
        (rate entry 2) (rate entry 4) (rate entry 8) (rate entry 16))
    Reg.all

(* ------------------------------------------------------------------ *)
(* P2b: the real multicore STM. *)

let real_stm () =
  section "P2b" "real multicore STM (TL2 over domains): bank throughput";
  let accounts = 16 and initial = 1000 in
  let bank = Tm_stm.Txn_bank.make ~accounts ~initial in
  let workers = 4 and per = 10_000 in
  let (), dt =
    time (fun () ->
        spawn_join workers (fun d ->
            let st = ref (d + 1) in
            let rand bound =
              st := (!st * 1103515245) + 12345;
              abs !st mod bound
            in
            for _ = 1 to per do
              let a = rand accounts in
              let b = (a + 1 + rand (accounts - 1)) mod accounts in
              ignore
                (Tm_stm.Txn_bank.transfer bank ~from_:a ~to_:b
                   ~amount:(1 + rand 5))
            done))
  in
  let commits, aborts = Stm.stats () in
  Fmt.pr
    "  %d workers x %d transfers in %.3fs (%.0f/s), commits=%d aborts=%d@."
    workers per dt
    (float_of_int (workers * per) /. dt)
    commits aborts;
  check "money conserved under full concurrency" ~paper:true
    ~measured:(Tm_stm.Txn_bank.total bank = accounts * initial)

(* ------------------------------------------------------------------ *)
(* P3: the paper's footnote 1 (Amdahl), measured on real hardware —
   resilient TMs scale with cores, the global lock cannot.  Each domain
   increments its own t-variable (a disjoint-access-parallel workload). *)

let p3_scaling () =
  section "P3"
    "footnote 1: disjoint-access scaling, TL2 runtime vs global-lock \
     runtime (ops/ms)";
  let iters = 200_000 in
  let measure algo domains =
    Stm.with_algo algo @@ fun () ->
    let tvars = Array.init domains (fun _ -> Stm.tvar 0) in
    let (), dt =
      time (fun () ->
          spawn_join domains (fun d ->
              for _ = 1 to iters do
                Stm.atomically (fun () ->
                    Stm.write tvars.(d) (Stm.read tvars.(d) + 1))
              done))
    in
    float_of_int (domains * iters) /. (dt *. 1000.)
  in
  let measure_tl2 = measure Stm.Algo.Tl2
  and measure_lock = measure Stm.Algo.Global_lock in
  Fmt.pr "    %-10s %12s %12s@." "domains" "tl2-stm" "lock-stm";
  let rows =
    List.map
      (fun d ->
        let a = measure_tl2 d and b = measure_lock d in
        Fmt.pr "    %-10d %12.0f %12.0f@." d a b;
        (d, (a, b)))
      [ 1; 2; 4 ]
  in
  let tl2_1, lock_1 = List.assoc 1 rows and tl2_4, lock_4 = List.assoc 4 rows in
  let tl2_speedup = tl2_4 /. tl2_1 and lock_speedup = lock_4 /. lock_1 in
  Fmt.pr "    4-domain speedup: tl2-stm %.2fx, lock-stm %.2fx@." tl2_speedup
    lock_speedup;
  (* Hardware gate: with fewer than 4 cores this machine cannot exhibit
     parallel speedup at all (documented substitution). *)
  on_four_cores ~id:"P3" ~what:"scaling"
    ~why:"parallel speedup not measurable here" (fun () ->
      check "resilient TM scales better than the global lock (footnote 1)"
        ~paper:true
        ~measured:(tl2_speedup > lock_speedup))

(* ------------------------------------------------------------------ *)
(* P4: the domain-parallel sweep engine — bit-for-bit determinism across
   job counts, per-TM metrics (abort-cause breakdown), and the parallel
   speedup on multicore hardware. *)

let p4_parallel_sweep () =
  section "P4" "domain-parallel sweep: determinism, metrics, speedup";
  let seeds = List.init 8 (fun i -> i + 1) in
  let configs =
    (* The acceptance grid: every TM in the zoo x 8 seeds, healthy runs
       long enough that a run is real work. *)
    Tm_sim.Sweep.grid
      ~patterns:
        (List.filteri (fun i _ -> i = 0) (Tm_sim.Sweep.fault_patterns ~steps:3000 ()))
      ~seeds ()
  in
  check_int "grid size (16 TMs x 8 seeds)" ~paper:(16 * 8)
    ~measured:(List.length configs);
  let seq, t_seq = time (fun () -> Tm_sim.Sweep.run configs) in
  let par, t_par =
    time (fun () ->
        Tm_sim.Pool.with_pool ~jobs:4 (fun pool ->
            Tm_sim.Sweep.run ~pool configs))
  in
  check "parallel sweep equals sequential sweep byte-for-byte" ~paper:true
    ~measured:(Tm_sim.Sweep.to_json seq = Tm_sim.Sweep.to_json par);
  (* Untraced results keep no history; trace both sides to compare
     them, and count a missing history as a mismatch. *)
  let histories ?pool () =
    List.map
      (fun r ->
        Option.map
          (fun t -> t.Tm_sim.Sweep.t_history)
          r.Tm_sim.Sweep.r_traced)
      (Tm_sim.Sweep.run ?pool ~trace:true configs)
  in
  let par_histories =
    Tm_sim.Pool.with_pool ~jobs:4 (fun pool -> histories ~pool ())
  in
  check "every run's history equals its sequential twin" ~paper:true
    ~measured:
      (List.for_all2
         (fun a b ->
           match (a, b) with
           | Some a, Some b -> History.equal a b
           | _ -> false)
         (histories ()) par_histories);
  Fmt.pr "  %d runs: sequential %.3fs, 4 jobs %.3fs (%.2fx)@."
    (List.length configs) t_seq t_par (t_seq /. t_par);
  (* Hardware gate, like P3; determinism, which does not need cores, is
     checked above. *)
  on_four_cores ~id:"P4" ~what:"speedup" (fun () ->
      check "4-job sweep is >= 2x faster on >= 4 cores" ~paper:true
        ~measured:(t_seq /. t_par >= 2.0));
  Fmt.pr "  per-TM abort-cause breakdown (read/write/commit) over the grid:@.";
  let module M = Tm_sim.Metrics in
  List.iter
    (fun (name, (m : M.t)) ->
      Fmt.pr "    %-18s commits %6d  aborts %6d = %5d/%5d/%5d  commit-lat \
              mean %5.1f ev@."
        name m.commits m.aborts m.abort_causes.on_read m.abort_causes.on_write
        m.abort_causes.on_commit
        (Tm_sim.Hist.mean m.commit_latency))
    (Tm_sim.Sweep.by_tm seq)

(* ------------------------------------------------------------------ *)
(* P9: the Kuznetsov–Ravi separation, measured.  "Why Transactional
   Memory Should Not Be Obstruction-Free" predicts that obstruction-free
   TMs pay a complexity premium over progressive lock-based ones; the
   observable proxy on real hardware is wasted work — aborts per commit
   — under rising contention on a hot conflicting workload.  DSTM's
   total stealing aborts rivals that TL2's per-location vlocks would
   simply have serialized, so its aborts/commit must be at least TL2's
   at the top of the domain ladder.  The full zoo trajectory (all four
   cores across the ladder) is recorded to BENCH_zoo.json as the repo's
   benchmark artifact; the verdict is hardware-gated like P3/P4 — with
   fewer than 4 cores the contention the claim needs cannot be produced. *)

let p9_zoo_separation () =
  section "P9"
    "zoo separation: obstruction-free vs progressive under contention";
  let iters = 20_000 in
  let ladder = [ 1; 2; 4 ] in
  let run_one algo domains =
    Stm.with_algo algo (fun () ->
        let hot = Array.init 2 (fun _ -> Stm.tvar 0) in
        let c0, a0 = Stm.stats () in
        let (), dt =
          time (fun () ->
              spawn_join domains (fun _ ->
                  for _ = 1 to iters do
                    Stm.atomically (fun () ->
                        let a = Stm.read hot.(0) in
                        let b = Stm.read hot.(1) in
                        Stm.write hot.(0) (a + 1);
                        Stm.write hot.(1) (b + 1))
                  done))
        in
        let c1, a1 = Stm.stats () in
        check
          (Fmt.str "%s x%d: every increment committed"
             (Stm.Algo.name algo) domains)
          ~paper:true
          ~measured:
            (Stm.read hot.(0) = domains * iters
            && Stm.read hot.(1) = domains * iters);
        (c1 - c0, a1 - a0, dt))
  in
  let aborts_per_commit (c, a, _) =
    if c = 0 then Float.infinity else float_of_int a /. float_of_int c
  in
  let runs =
    List.concat_map
      (fun algo ->
        List.map
          (fun domains -> (algo, domains, run_one algo domains))
          ladder)
      Stm.Algo.all
  in
  Fmt.pr "    %-12s %-8s %10s %10s %12s %14s@." "algo" "domains" "commits"
    "aborts" "kcommits/s" "aborts/commit";
  List.iter
    (fun (algo, domains, ((c, a, dt) as r)) ->
      Fmt.pr "    %-12s %-8d %10d %10d %12.0f %14.3f@." (Stm.Algo.name algo)
        domains c a
        (float_of_int c /. dt /. 1000.)
        (aborts_per_commit r))
    runs;
  (* The deterministic half of the separation: the complexity premium
     in the read path itself, no contention required.  DSTM's safety
     rests on revalidating the whole read set on every read (total
     stealing makes every read a potential invalidation), so a read-only
     transaction of k reads does O(k^2) validation work; TL2's invisible
     reads are O(1) each, so the same transaction is O(k).  Growing k
     16x must therefore grow DSTM's per-transaction latency by a
     distinctly larger factor than TL2's — on any machine, single
     domain. *)
  let k_small = 4 and k_large = 64 in
  let read_latency_ns algo k =
    Stm.with_algo algo (fun () ->
        let tvs = Array.init k (fun _ -> Stm.tvar 0) in
        let body () =
          Stm.atomically (fun () ->
              Array.iter (fun tv -> ignore (Stm.read tv)) tvs)
        in
        for _ = 1 to 200 do
          body ()
        done;
        let reps = 200_000 / k in
        let (), dt =
          time (fun () ->
              for _ = 1 to reps do
                body ()
              done)
        in
        dt *. 1e9 /. float_of_int reps)
  in
  let scaling =
    List.map
      (fun algo ->
        let s = read_latency_ns algo k_small
        and l = read_latency_ns algo k_large in
        (algo, s, l, l /. s))
      Stm.Algo.all
  in
  Fmt.pr "    read-only latency by read-set size (single domain):@.";
  Fmt.pr "    %-12s %14s %14s %10s@." "algo"
    (Fmt.str "k=%d (ns)" k_small)
    (Fmt.str "k=%d (ns)" k_large)
    "growth";
  List.iter
    (fun (algo, s, l, g) ->
      Fmt.pr "    %-12s %14.0f %14.0f %9.1fx@." (Stm.Algo.name algo) s l g)
    scaling;
  let growth_of a =
    let _, _, _, g = List.find (fun (x, _, _, _) -> x = a) scaling in
    g
  in
  let dstm_growth = growth_of Stm.Algo.Dstm
  and tl2_growth = growth_of Stm.Algo.Tl2 in
  let complexity_holds = dstm_growth >= 2. *. tl2_growth in
  check
    (Fmt.str
       "dstm read path grows superlinearly vs tl2 (k %d -> %d: %.1fx vs \
        %.1fx)"
       k_small k_large dstm_growth tl2_growth)
    ~paper:true ~measured:complexity_holds;
  let peak = List.fold_left max 1 ladder in
  let at algo domains =
    let _, _, r =
      List.find (fun (a, d, _) -> a = algo && d = domains) runs
    in
    r
  in
  let dstm_apc = aborts_per_commit (at Stm.Algo.Dstm peak)
  and tl2_apc = aborts_per_commit (at Stm.Algo.Tl2 peak) in
  let holds = dstm_apc >= tl2_apc in
  write_result ~what:"trajectory" "BENCH_zoo.json"
    (Fmt.str
      "{\"experiment\":\"P9\",\"claim\":\"obstruction-free pays at least \
       the progressive abort rate under contention\",\"cores\":%d,\
       \"iters_per_domain\":%d,\"tvars\":2,\"ladder\":[%s],\"runs\":[%s],\
       \"read_scaling\":{\"k_small\":%d,\"k_large\":%d,\"per_algo\":[%s],\
       \"dstm_growth\":%.1f,\"tl2_growth\":%.1f,\"holds\":%b},\
       \"separation\":{\"at_domains\":%d,\"dstm_aborts_per_commit\":%.4f,\
       \"tl2_aborts_per_commit\":%.4f,\"holds\":%b}}"
      cores iters
      (String.concat "," (List.map string_of_int ladder))
      (String.concat ","
         (List.map
            (fun (algo, domains, ((c, a, dt) as r)) ->
              Fmt.str
                "{\"algo\":%S,\"progress\":%S,\"domains\":%d,\
                 \"commits\":%d,\"aborts\":%d,\"wall_s\":%.4f,\
                 \"kcommits_per_s\":%.1f,\"aborts_per_commit\":%.4f}"
                (Stm.Algo.name algo)
                (Stm.Algo.progress_label algo)
                domains c a dt
                (float_of_int c /. dt /. 1000.)
                (aborts_per_commit r))
            runs))
      k_small k_large
      (String.concat ","
         (List.map
            (fun (algo, s, l, g) ->
              Fmt.str
                "{\"algo\":%S,\"ns_small\":%.0f,\"ns_large\":%.0f,\
                 \"growth\":%.1f}"
                (Stm.Algo.name algo) s l g)
            scaling))
      dstm_growth tl2_growth complexity_holds peak dstm_apc tl2_apc holds);
  on_four_cores ~id:"P9" ~what:"separation"
    ~why:"contention separation not measurable here" (fun () ->
      check
        (Fmt.str
           "dstm aborts/commit >= tl2 aborts/commit at %d domains \
            (Kuznetsov-Ravi)"
           peak)
        ~paper:true ~measured:holds)
