(* The reproduction harness: regenerates every figure and theorem-level
   claim of "On the Liveness of Transactional Memory" (PODC 2012) and
   prints paper-vs-measured verdicts, then runs bechamel timing benches.

   See EXPERIMENTS.md for the experiment index (F1..F16, T1..T3, Z1..Z2,
   P1..P2) and DESIGN.md for the design. *)

open Tm_history
module Reg = Tm_impl.Registry

let failures = ref 0

let check name ~paper ~measured =
  let ok = paper = measured in
  if not ok then incr failures;
  Fmt.pr "  %-58s paper=%-6b measured=%-6b %s@." name paper measured
    (if ok then "OK" else "MISMATCH")

let check_int name ~paper ~measured =
  let ok = paper = measured in
  if not ok then incr failures;
  Fmt.pr "  %-58s paper=%-6d measured=%-6d %s@." name paper measured
    (if ok then "OK" else "MISMATCH")

let section id title = Fmt.pr "@.=== %s: %s ===@." id title

(* ------------------------------------------------------------------ *)
(* F1: Figure 1 — the scenario is opaque and realizable; repeated forever
   it starves p1. *)

let f1 () =
  section "F1" "Figure 1: the local-progress dilemma scenario";
  check "fig1 is opaque" ~paper:true
    ~measured:(Tm_safety.Opacity.is_opaque Figures.fig1);
  check "fig1 is strictly serializable" ~paper:true
    ~measured:(Tm_safety.Serializability.is_strictly_serializable Figures.fig1);
  (* Realizability: the adversary's first round against Fgp reproduces
     Figure 1 exactly. *)
  let entry = Option.get (Reg.find "fgp") in
  let r =
    Tm_adversary.Adversary.run ~rounds:1 entry Tm_adversary.Adversary.Algorithm_1
  in
  let prefix n h =
    History.of_events (List.filteri (fun i _ -> i < n) (History.events h))
  in
  check "adversary round 1 vs fgp = fig1" ~paper:true
    ~measured:
      (History.equal
         (prefix (History.length Figures.fig1)
            r.Tm_adversary.Adversary.history)
         Figures.fig1)

(* ------------------------------------------------------------------ *)
(* F2: Figure 2 — the process-class inclusion diagram, checked on every
   lasso figure and its rotations/unrollings. *)

let f2 () =
  section "F2" "Figure 2: process-class taxonomy inclusions";
  let variants l =
    [
      l;
      Lasso.rotate l;
      Lasso.rotate (Lasso.rotate l);
      Lasso.unroll_cycle_into_stem l;
    ]
  in
  let lassos = List.concat_map (fun (_, l) -> variants l) Figures.all_lassos in
  let ok =
    List.for_all
      (fun l ->
        List.for_all
          (fun p ->
            let imp a b = (not a) || b in
            let open Tm_liveness.Process_class in
            imp (crashes l p) (is_pending l p)
            && imp (crashes l p) (is_faulty l p)
            && imp (is_parasitic l p) (is_pending l p)
            && imp (is_parasitic l p) (is_faulty l p)
            && imp (is_starving l p) (is_pending l p)
            && imp (is_starving l p) (is_correct l p)
            && imp (not (is_pending l p)) (is_correct l p)
            && is_correct l p <> is_faulty l p)
          (Lasso.procs l))
      lassos
  in
  check
    (Fmt.str "all inclusion arrows hold on %d lasso variants"
       (List.length lassos))
    ~paper:true ~measured:ok

(* ------------------------------------------------------------------ *)
(* F3/F4/F8: safety verdicts of the example histories. *)

let f3_f4_f8 () =
  section "F3/F4/F8" "safety verdicts of the example histories";
  check "fig3 opaque" ~paper:false
    ~measured:(Tm_safety.Opacity.is_opaque Figures.fig3);
  check "fig3 strictly serializable" ~paper:false
    ~measured:(Tm_safety.Serializability.is_strictly_serializable Figures.fig3);
  check "fig4 opaque" ~paper:false
    ~measured:(Tm_safety.Opacity.is_opaque Figures.fig4);
  check "fig4 strictly serializable" ~paper:true
    ~measured:(Tm_safety.Serializability.is_strictly_serializable Figures.fig4);
  List.iter
    (fun v ->
      check
        (Fmt.str "fig8 (terminating adversary suffix, v=%d) opaque" v)
        ~paper:false
        ~measured:(Tm_safety.Opacity.is_opaque (Figures.fig8 ~v)))
    [ 0; 1; 5 ]

(* ------------------------------------------------------------------ *)
(* F5..F14: liveness verdicts of the infinite histories. *)

let liveness_figures () =
  section "F5-F14" "liveness verdicts of the infinite histories";
  let expect name l (local, global, solo, nb, bi) =
    let v = Tm_liveness.Property.verdict l in
    check (name ^ " local progress") ~paper:local
      ~measured:v.Tm_liveness.Property.local;
    check (name ^ " global progress") ~paper:global
      ~measured:v.Tm_liveness.Property.global;
    check (name ^ " solo progress") ~paper:solo
      ~measured:v.Tm_liveness.Property.solo;
    check (name ^ " respects nonblocking") ~paper:nb
      ~measured:v.Tm_liveness.Property.nonblocking_ok;
    check (name ^ " respects biprogressing") ~paper:bi
      ~measured:v.Tm_liveness.Property.biprogressing_ok
  in
  expect "fig5" Figures.fig5 (true, true, true, true, true);
  expect "fig6" Figures.fig6 (false, true, true, true, false);
  expect "fig7" Figures.fig7 (true, true, true, true, true);
  expect "fig9" Figures.fig9 (false, false, false, false, true);
  expect "fig10" Figures.fig10 (false, true, true, true, false);
  expect "fig12" Figures.fig12 (false, false, false, false, true);
  expect "fig13" Figures.fig13 (false, true, true, true, false);
  expect "fig14" Figures.fig14 (false, false, false, false, true);
  check "fig7: p1 crashes" ~paper:true
    ~measured:(Tm_liveness.Process_class.crashes Figures.fig7 1);
  check "fig7: p2 parasitic" ~paper:true
    ~measured:(Tm_liveness.Process_class.is_parasitic Figures.fig7 2);
  check "fig7: p3 runs alone and progresses" ~paper:true
    ~measured:
      (Tm_liveness.Process_class.runs_alone Figures.fig7 3
      && Tm_liveness.Process_class.makes_progress Figures.fig7 3);
  check "fig12: p1 parasitic" ~paper:true
    ~measured:(Tm_liveness.Process_class.is_parasitic Figures.fig12 1)

(* ------------------------------------------------------------------ *)
(* F15: the 10-state Fgp automaton. *)

type fgp_action = A_invoke of Event.invocation | A_poll

let f15 () =
  section "F15" "Figure 15: Fgp with one process, one binary t-variable";
  let cfg = Tm_impl.Tm_intf.config ~nprocs:1 ~ntvars:1 () in
  let exploration =
    Tm_automaton.Explorer.reachable
      ~make:(fun () -> Tm_impl.Fgp.create cfg)
      ~snapshot:Tm_impl.Fgp.state
      ~actions:(fun t ->
        match Tm_impl.Fgp.pending t 1 with
        | Some _ -> [ A_poll ]
        | None ->
            [
              A_invoke (Event.Read 0);
              A_invoke (Event.Write (0, 0));
              A_invoke (Event.Write (0, 1));
              A_invoke Event.Try_commit;
            ])
      ~apply:(fun t a ->
        match a with
        | A_invoke inv -> Tm_impl.Fgp.invoke t 1 inv
        | A_poll -> ignore (Tm_impl.Fgp.poll t 1))
      ()
  in
  check_int "reachable states" ~paper:10
    ~measured:(List.length exploration.Tm_automaton.Explorer.states);
  Fmt.pr "  states:@.";
  List.iteri
    (fun i (s, _) -> Fmt.pr "    s%-2d %a@." (i + 1) Tm_impl.Fgp.pp_state s)
    exploration.Tm_automaton.Explorer.states

(* ------------------------------------------------------------------ *)
(* F16: the example history Hex of Fgp, replayed. *)

let f16 () =
  section "F16" "Figure 16: the example history Hex of Fgp";
  let cfg = Tm_impl.Tm_intf.config ~nprocs:3 ~ntvars:2 () in
  let t = Tm_impl.Fgp.create cfg in
  let h = ref History.empty in
  let invoke p inv =
    Tm_impl.Fgp.invoke t p inv;
    h := History.append !h (Event.Inv (p, inv))
  in
  let poll p =
    match Tm_impl.Fgp.poll t p with
    | Some r -> h := History.append !h (Event.Res (p, r))
    | None -> ()
  in
  let x = 0 and y = 1 in
  invoke 1 (Event.Read x);
  poll 1;
  invoke 2 (Event.Write (y, 1));
  invoke 1 (Event.Write (x, 1));
  poll 1;
  invoke 1 Event.Try_commit;
  poll 1;
  poll 2;
  invoke 3 (Event.Read y);
  poll 3;
  invoke 3 (Event.Write (y, 1));
  poll 3;
  invoke 1 (Event.Read y);
  poll 1;
  invoke 3 Event.Try_commit;
  poll 3;
  invoke 1 Event.Try_commit;
  poll 1;
  invoke 2 (Event.Read y);
  poll 2;
  invoke 2 (Event.Read x);
  poll 2;
  invoke 2 Event.Try_commit;
  poll 2;
  check "replayed history equals Figure 16" ~paper:true
    ~measured:(History.equal !h Figures.fig16);
  check "Hex is opaque" ~paper:true ~measured:(Tm_safety.Opacity.is_opaque !h)

(* ------------------------------------------------------------------ *)
(* T1: Theorem 1 — the adversary starves p1 against every responsive TM,
   and blocks against blocking TMs. *)

let t1 () =
  section "T1" "Theorem 1: opacity + local progress is impossible";
  List.iter
    (fun (alg, alg_name) ->
      Fmt.pr "  -- %s --@." alg_name;
      List.iter
        (fun entry ->
          let r = Tm_adversary.Adversary.run ~rounds:30 entry alg in
          if r.Tm_adversary.Adversary.blocked then
            (* Withholding responses is an escape open only to blocking
               TMs. *)
            check
              (Fmt.str "%-16s blocks (allowed: blocking TM)"
                 entry.Reg.entry_name)
              ~paper:true
              ~measured:(not entry.Reg.responsive)
          else if r.Tm_adversary.Adversary.winner_starved then
            (* A TM without global progress starves even the winner — the
               Figure 9/12 outcome, produced by the quiescent strawman and
               by the priority Fgp (the suspended victim is its top
               priority). *)
            check
              (Fmt.str "%-16s starves everyone (quiescent/priority)"
                 entry.Reg.entry_name)
              ~paper:true
              ~measured:
                (List.mem entry.Reg.entry_name
                   [ "quiescent"; "fgp-priority" ])
          else
            check
              (Fmt.str "%-16s p1 never commits" entry.Reg.entry_name)
              ~paper:true
              ~measured:
                ((not r.Tm_adversary.Adversary.terminated)
                && r.Tm_adversary.Adversary.victim_commits = 0
                && r.Tm_adversary.Adversary.winner_commits >= 30))
        Reg.all)
    [
      (Tm_adversary.Adversary.Algorithm_1, "Algorithm 1");
      (Tm_adversary.Adversary.Algorithm_2, "Algorithm 2");
    ]

(* ------------------------------------------------------------------ *)
(* T2: Lemma 1 / Theorem 2 — the n-process generalization. *)

let t2 () =
  section "T2" "Lemma 1 / Theorem 2: n-process generalization";
  List.iter
    (fun n ->
      List.iter
        (fun tm_name ->
          let entry = Option.get (Reg.find tm_name) in
          let r =
            Tm_adversary.Adversary.General.run ~rounds:15 ~nprocs:n entry
          in
          let victims_starve =
            (not r.Tm_adversary.Adversary.General.any_victim_committed)
            && r.Tm_adversary.Adversary.General.commits.(n) >= 15
          in
          check
            (Fmt.str "n=%d vs %-16s %d victims starve, winner commits" n
               tm_name (n - 1))
            ~paper:true ~measured:victims_starve)
        [ "fgp"; "tl2"; "ostm" ])
    [ 2; 3; 5; 8 ]

(* ------------------------------------------------------------------ *)
(* T3: Theorem 3 — Fgp ensures opacity and global progress. *)

(* Exhaustive bounded model check: every schedule of the given depth, each
   history screened by the linear-time monitor with fallback to the exact
   checker. *)
let sweep_non_opaque entry ~depth =
  let bad = ref 0 and checked = ref 0 in
  Tm_sim.Sweep.Exhaustive.run entry ~nprocs:2 ~ntvars:1
    ~invocations:[ Event.Read 0; Event.Write (0, 1); Event.Try_commit ]
    ~depth
    ~on_history:(fun h _ ->
      incr checked;
      match Tm_safety.Monitor.run h with
      | Tm_safety.Monitor.Accepted -> ()
      | Tm_safety.Monitor.No_witness _ ->
          if not (Tm_safety.Opacity.is_opaque h) then incr bad);
  (!checked, !bad)

let t3 () =
  section "T3" "Theorem 3: Fgp ensures opacity and global progress";
  let entry = Option.get (Reg.find "fgp") in
  (* (a) opacity under many random faulty schedules. *)
  let opaque_runs = ref 0 in
  let total_runs = 60 in
  for seed = 1 to total_runs do
    let fates =
      match seed mod 4 with
      | 0 -> []
      | 1 -> [ (1, Tm_sim.Runner.Crash_at 30) ]
      | 2 -> [ (1, Tm_sim.Runner.Parasitic_from 30) ]
      | _ ->
          [
            (1, Tm_sim.Runner.Crash_at 50);
            (2, Tm_sim.Runner.Parasitic_from 20);
          ]
    in
    let spec =
      Tm_sim.Runner.spec ~nprocs:3 ~ntvars:2 ~steps:200 ~seed
        ~sched:Tm_sim.Runner.Uniform ~fates ()
    in
    let o = Tm_sim.Runner.run entry spec in
    if Tm_safety.Opacity.is_opaque o.Tm_sim.Runner.history then
      incr opaque_runs
  done;
  check_int "random faulty runs opaque (of 60)" ~paper:total_runs
    ~measured:!opaque_runs;
  (* (b) exhaustive opacity over every schedule up to a bounded depth, two
     processes, one binary t-variable — for Fgp and the rest of the
     responsive zoo. *)
  List.iter
    (fun (name, depth) ->
      let entry' = Option.get (Reg.find name) in
      let checked, bad = sweep_non_opaque entry' ~depth in
      Fmt.pr "  %-16s exhaustive depth-%d sweep: %6d histories@." name depth
        checked;
      check_int (Fmt.str "%s non-opaque histories" name) ~paper:0
        ~measured:bad)
    [
      ("fgp", 9); ("tl2", 8); ("tinystm", 8); ("tinystm-ext", 8);
      ("swisstm", 8); ("dstm-aggressive", 8); ("ostm", 8); ("norec", 8);
      ("mvstm", 8); ("quiescent", 8); ("twopl", 8); ("fgp-priority", 8);
    ];
  (* (c) global progress: in long faulty runs, some correct process keeps
     committing. *)
  let spec =
    Tm_sim.Runner.spec ~nprocs:4 ~ntvars:2 ~steps:6000 ~seed:3
      ~sched:Tm_sim.Runner.Uniform
      ~fates:
        [
          (1, Tm_sim.Runner.Crash_at 100); (2, Tm_sim.Runner.Parasitic_from 100);
        ]
      ()
  in
  let o = Tm_sim.Runner.run entry spec in
  check "some correct process commits unboundedly" ~paper:true
    ~measured:(o.Tm_sim.Runner.commits.(3) + o.Tm_sim.Runner.commits.(4) > 50)

(* ------------------------------------------------------------------ *)
(* Z1: the Section-3.2.3 solo-progress matrix. *)

let z1 () =
  section "Z1" "Section 3.2.3: solo progress under faults";
  let solo ?(sched = Tm_sim.Runner.Round_robin) entry fate =
    let spec =
      Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps:4000 ~seed:1 ~sched
        ~fates:[ (1, fate) ]
        ()
    in
    (Tm_sim.Runner.run entry spec).Tm_sim.Runner.commits.(2) >= 10
  in
  let expectations =
    (* name, healthy, crash-after-write, crash-mid-commit, parasite *)
    [
      ("global-lock", true, false, false, false);
      ("fgp", true, true, true, true);
      ("tl2", true, true, false, true);
      ("tinystm", true, false, false, false);
      ("tinystm-ext", true, false, false, false);
      ("swisstm", true, false, false, false);
      ("dstm-aggressive", true, true, true, false);
      ("dstm-polite-4", true, true, true, true);
      ("dstm-karma", true, true, true, true);
      ("dstm-greedy", true, false, false, false);
      ("ostm", true, true, true, true);
      ("norec", true, true, false, true);
      ("mvstm", true, true, false, true);
      ("quiescent", true, false, false, false);
      ("twopl", true, false, false, false);
      (* fgp-priority is assessed in the FW section: its guarantee is
         priority progress, so the solo-runner criterion does not apply *)
    ]
  in
  List.iter
    (fun (name, h, c, m, p) ->
      let entry = Option.get (Reg.find name) in
      let depth =
        match name with "tl2" | "ostm" | "norec" | "mvstm" -> 2 | _ -> 0
      in
      check (name ^ " healthy") ~paper:h
        ~measured:
          (solo ~sched:Tm_sim.Runner.Uniform entry Tm_sim.Runner.Healthy);
      check (name ^ " crash-after-write") ~paper:c
        ~measured:(solo entry (Tm_sim.Runner.Crash_after_write 1));
      check (name ^ " crash-mid-commit") ~paper:m
        ~measured:(solo entry (Tm_sim.Runner.Crash_mid_commit depth));
      check (name ^ " parasite") ~paper:p
        ~measured:(solo entry (Tm_sim.Runner.Parasitic_from 10)))
    expectations;
  (* Quantitative: random-crash vulnerability window.  One hot t-variable
     and three writes per transaction, so a crash anywhere between the
     first write and the commit response strands encounter-time locks
     (tinystm) while commit-time locking (tl2, norec) is only vulnerable
     inside the commit procedure itself, and revocable/helping designs
     (dstm, ostm) and fgp are never vulnerable. *)
  Fmt.pr "  random-crash stall windows (3-write transactions, one hot \
          t-variable, 40 crash points):@.";
  let inc = Tm_sim.Workload.W_write
      (0, fun reads ->
        (match List.assoc_opt 0 reads with Some v -> v | None -> 0) + 1)
  in
  let hot_workload =
    Tm_sim.Workload.fixed "w3x1" [ [ Tm_sim.Workload.W_read 0; inc; inc; inc ] ]
  in
  List.iter
    (fun name ->
      let entry = Option.get (Reg.find name) in
      let stalls = ref 0 in
      let runner_commits = ref [] in
      for seed = 1 to 40 do
        let crash_step = 20 + (seed * 17 mod 300) in
        let spec =
          Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps:4000 ~seed
            ~sched:Tm_sim.Runner.Round_robin ~workload:hot_workload
            ~fates:[ (1, Tm_sim.Runner.Crash_at crash_step) ]
            ()
        in
        let o = Tm_sim.Runner.run entry spec in
        runner_commits := o.Tm_sim.Runner.commits.(2) :: !runner_commits;
        if o.Tm_sim.Runner.commits.(2) < 10 then incr stalls
      done;
      Fmt.pr "    %-18s %2d/40   runner commits: %a@." name !stalls
        Tm_sim.Stats.pp
        (Tm_sim.Stats.of_ints !runner_commits))
    [
      "global-lock"; "fgp"; "tl2"; "tinystm"; "dstm-aggressive"; "ostm";
      "norec";
    ]

(* ------------------------------------------------------------------ *)
(* Z2: the global-lock TM: local progress iff fault-free. *)

let z2 () =
  section "Z2" "Section 1.1/3.2.1: the global-lock TM";
  let entry = Option.get (Reg.find "global-lock") in
  let spec =
    Tm_sim.Runner.spec ~nprocs:4 ~ntvars:1 ~steps:4000 ~seed:2
      ~sched:Tm_sim.Runner.Round_robin ()
  in
  let o = Tm_sim.Runner.run entry spec in
  check "fault-free: zero aborts" ~paper:true
    ~measured:(Tm_sim.Runner.abort_total o = 0);
  check "fault-free: every process commits (local progress)" ~paper:true
    ~measured:
      (List.for_all (fun p -> o.Tm_sim.Runner.commits.(p) >= 10) [ 1; 2; 3; 4 ]);
  let spec_crash =
    Tm_sim.Runner.spec ~nprocs:4 ~ntvars:1 ~steps:4000 ~seed:2
      ~sched:Tm_sim.Runner.Round_robin
      ~fates:[ (1, Tm_sim.Runner.Crash_after_write 1) ]
      ()
  in
  let oc = Tm_sim.Runner.run entry spec_crash in
  check "one crash blocks every other process" ~paper:true
    ~measured:(List.length (Tm_sim.Runner.blocked_procs oc) = 3)

(* ------------------------------------------------------------------ *)
(* FW: the concluding remarks' future-work families — k-progress and
   priority progress — evaluated on a live run via empirical lasso
   detection. *)

let fw () =
  section "FW" "concluding remarks: k-progress and priority progress";
  (* The toggle workload of Figures 5/6 under fgp, round-robin lockstep:
     an exactly periodic run that realizes Figure 6 (p1 commits forever,
     p2 aborts forever). *)
  let toggle =
    Tm_sim.Workload.fixed "toggle"
      [
        [
          Tm_sim.Workload.W_read 0;
          Tm_sim.Workload.W_write
            ( 0,
              fun reads ->
                match List.assoc_opt 0 reads with
                | Some v -> 1 - v
                | None -> 1 );
        ];
      ]
  in
  let entry = Option.get (Reg.find "fgp") in
  let spec =
    Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps:400 ~seed:1
      ~sched:Tm_sim.Runner.Round_robin ~workload:toggle ()
  in
  let o = Tm_sim.Runner.run entry spec in
  match Tm_liveness.Empirical.find_lasso o.Tm_sim.Runner.history with
  | None -> check "periodic suffix detected" ~paper:true ~measured:false
  | Some l ->
      check "periodic suffix detected" ~paper:true ~measured:true;
      check "run realizes Figure 6 (global, not local)" ~paper:true
        ~measured:
          (Tm_liveness.Property.global_progress l
          && not (Tm_liveness.Property.local_progress l));
      let k1 = Tm_liveness.Property.k_progress 1 in
      let k2 = Tm_liveness.Property.k_progress 2 in
      check "1-progress holds (= global progress)" ~paper:true
        ~measured:(k1.Tm_liveness.Property.holds l);
      check "2-progress fails (Theorem 2 families)" ~paper:false
        ~measured:(k2.Tm_liveness.Property.holds l);
      check "priority progress holds when the winner is prioritized"
        ~paper:true
        ~measured:
          (Tm_liveness.Property.priority_progress
             ~priority:(fun p -> -p)
             l);
      check "priority progress fails when the loser is prioritized"
        ~paper:false
        ~measured:
          (Tm_liveness.Property.priority_progress ~priority:(fun p -> p) l);
      (* The possibility side: fgp-priority is built to ensure priority
         progress (smaller id = higher priority).  Its round-robin
         lockstep run is exactly periodic; the detected lasso satisfies
         priority progress with the top process never aborted, while
         local progress fails — as Theorem 1 requires it must. *)
      let pentry = Option.get (Reg.find "fgp-priority") in
      let pspec =
        Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps:400 ~seed:1
          ~sched:Tm_sim.Runner.Round_robin ~workload:toggle ()
      in
      let po = Tm_sim.Runner.run pentry pspec in
      (match Tm_liveness.Empirical.find_lasso po.Tm_sim.Runner.history with
      | None ->
          check "fgp-priority lockstep run is periodic" ~paper:true
            ~measured:false
      | Some pl ->
          check "fgp-priority lockstep run is periodic" ~paper:true
            ~measured:true;
          check "fgp-priority ensures priority progress" ~paper:true
            ~measured:
              (Tm_liveness.Property.priority_progress
                 ~priority:(fun p -> -p)
                 pl);
          check "fgp-priority does not ensure local progress" ~paper:false
            ~measured:(Tm_liveness.Property.local_progress pl));
      check "fgp-priority never aborts the top process" ~paper:true
        ~measured:(po.Tm_sim.Runner.aborts.(1) = 0)

(* ------------------------------------------------------------------ *)
(* FW2: the second circumvention (§1.3): the TM controls the application
   and re-executes transaction bodies itself. *)

let fw2 () =
  section "FW2"
    "second circumvention: TM-controlled execution (Fetzer-style)";
  let entry = Option.get (Reg.find "fgp") in
  (* Step-level adversarial scheduling starves p2... *)
  let spec =
    Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps:2400 ~seed:1
      ~sched:Tm_sim.Runner.Round_robin ()
  in
  let o = Tm_sim.Runner.run entry spec in
  check "step-level lockstep starves p2 under fgp" ~paper:true
    ~measured:(o.Tm_sim.Runner.commits.(2) = 0);
  (* ...but with the TM in control of execution, every submission of every
     process commits: local progress at the submission level. *)
  let c =
    Tm_sim.Controlled.run entry ~nprocs:2 ~ntvars:1 ~submissions:50
      ~workload:(Tm_sim.Workload.counter ~ntvars:1)
      ~seed:1
  in
  check "controlled execution: p1 commits all 50" ~paper:true
    ~measured:(c.Tm_sim.Controlled.committed.(1) = 50);
  check "controlled execution: p2 commits all 50" ~paper:true
    ~measured:(c.Tm_sim.Controlled.committed.(2) = 50);
  check "controlled-execution history opaque (monitor witness)" ~paper:true
    ~measured:
      (match Tm_safety.Monitor.run c.Tm_sim.Controlled.history with
      | Tm_safety.Monitor.Accepted -> true
      | Tm_safety.Monitor.No_witness _ -> false)

(* ------------------------------------------------------------------ *)
(* MV: the remaining proof-case figures (9 and 12), realized live by the
   quiescent strawman; and the multiversion TM's reader guarantee. *)

let mv () =
  section "MV" "Figures 9/12 realized; multiversion readers never abort";
  let quiescent = Option.get (Reg.find "quiescent") in
  (* Figure 9 shape: Algorithm 1, p1 "crashes" after one read, p2 is
     aborted forever. *)
  let r9 =
    Tm_adversary.Adversary.run ~patience:100 ~rounds:10 quiescent
      Tm_adversary.Adversary.Algorithm_1
  in
  check "fig9 shape: p2 starves while p1 sleeps (quiescent)" ~paper:true
    ~measured:
      (r9.Tm_adversary.Adversary.winner_starved
      && History.abort_count r9.Tm_adversary.Adversary.history 2 >= 100
      && History.event_count r9.Tm_adversary.Adversary.history 1 = 2);
  (* Figure 12 shape: Algorithm 2, p1 becomes parasitic. *)
  let r12 =
    Tm_adversary.Adversary.run ~patience:40 ~rounds:3 quiescent
      Tm_adversary.Adversary.Algorithm_2
  in
  let h12 = r12.Tm_adversary.Adversary.history in
  check "fig12 shape: p1 parasitic, p2 starves (quiescent)" ~paper:true
    ~measured:
      (r12.Tm_adversary.Adversary.winner_starved
      && History.abort_count h12 1 = 0
      && History.try_commit_count h12 1 = 0
      && History.event_count h12 1 > 50
      && History.commit_count h12 2 = 0);
  (* Multiversion: a read-only process never aborts under write fire from
     the others (per-process workload override), while TL2 aborts the same
     reader constantly. *)
  let mvstm = Option.get (Reg.find "mvstm") in
  let spec =
    Tm_sim.Runner.spec ~nprocs:3 ~ntvars:2 ~steps:3000 ~seed:4
      ~sched:Tm_sim.Runner.Uniform
      ~workload:(Tm_sim.Workload.counter ~ntvars:2)
      ~workload_overrides:[ (1, Tm_sim.Workload.read_only ~ntvars:2 ~reads:3) ]
      ()
  in
  let o = Tm_sim.Runner.run mvstm spec in
  check "mvstm: the read-only process never aborts under write fire"
    ~paper:true
    ~measured:(o.Tm_sim.Runner.aborts.(1) = 0);
  let o_tl2 = Tm_sim.Runner.run (Option.get (Reg.find "tl2")) spec in
  check "tl2: the same reader aborts repeatedly" ~paper:true
    ~measured:(o_tl2.Tm_sim.Runner.aborts.(1) > 20);
  (* ... and yet Theorem 1 still holds against it (checked in T1). *)
  let radv =
    Tm_adversary.Adversary.run ~rounds:20 mvstm
      Tm_adversary.Adversary.Algorithm_1
  in
  check "mvstm: the adversary still starves p1" ~paper:true
    ~measured:
      (radv.Tm_adversary.Adversary.victim_commits = 0
      && radv.Tm_adversary.Adversary.winner_commits >= 20)

(* ------------------------------------------------------------------ *)
(* FW3: exact liveness verdicts on one fixed adversarial schedule — the
   toggle workload (Figures 5/6) under round-robin lockstep.  Runs are
   deterministic and exactly periodic, so Empirical.find_lasso gives the
   *decided* verdict of each TM's infinite behaviour on this schedule:
   some TMs alternate fairly (local progress on this schedule), others
   serve one process forever (global only), realizing Figure 5 vs
   Figure 6 live. *)

let fw3 () =
  section "FW3"
    "exact verdicts on the toggle lockstep schedule (fig 5 vs fig 6 live)";
  let toggle =
    Tm_sim.Workload.fixed "toggle"
      [
        [
          Tm_sim.Workload.W_read 0;
          Tm_sim.Workload.W_write
            ( 0,
              fun reads ->
                match List.assoc_opt 0 reads with
                | Some v -> 1 - v
                | None -> 1 );
        ];
      ]
  in
  Fmt.pr "    %-18s %-10s %-8s %-8s %s@." "TM" "periodic" "local" "global"
    "commits p1/p2";
  let fgp_local = ref true in
  let any_local = ref false in
  List.iter
    (fun entry ->
      let spec =
        Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps:600 ~seed:1
          ~sched:Tm_sim.Runner.Round_robin ~workload:toggle ()
      in
      let o = Tm_sim.Runner.run entry spec in
      let commits =
        Fmt.str "%d/%d" o.Tm_sim.Runner.commits.(1) o.Tm_sim.Runner.commits.(2)
      in
      match Tm_liveness.Empirical.find_lasso o.Tm_sim.Runner.history with
      | None -> Fmt.pr "    %-18s %-10s %-8s %-8s %s@."
          entry.Reg.entry_name "no" "-" "-" commits
      | Some l ->
          let v = Tm_liveness.Property.verdict l in
          if entry.Reg.entry_name = "fgp" then
            fgp_local := v.Tm_liveness.Property.local;
          if v.Tm_liveness.Property.local then any_local := true;
          Fmt.pr "    %-18s %-10s %-8b %-8b %s@." entry.Reg.entry_name "yes"
            v.Tm_liveness.Property.local v.Tm_liveness.Property.global
            commits)
    Reg.all;
  check "fgp realizes Figure 6 on this schedule (global, not local)"
    ~paper:false ~measured:!fgp_local;
  check "some TM realizes Figure 5 on this schedule (local progress)"
    ~paper:true ~measured:!any_local

(* ------------------------------------------------------------------ *)
(* OQ: the paper's open question — "determine precisely the strongest
   liveness property that can be ensured by a TM".  We cannot answer it,
   but we can map the empirical frontier: for each TM, which property of
   the local > global > solo chain survives every adversarial scenario we
   can throw at it (faults, adversary, lockstep).  Bounded runs only ever
   falsify, so the verdicts are "falsified" vs "not falsified here". *)

let oq () =
  section "OQ" "open question: the strongest unfalsified property per TM";
  Fmt.pr "    %-18s %-22s %-22s %s@." "TM" "local" "global" "solo";
  List.iter
    (fun entry ->
      let name = entry.Reg.entry_name in
      (* local: the Theorem-1 adversary falsifies it for every TM (the
         victim is correct and starves), whatever the outcome mode. *)
      let local = "falsified (Thm 1)" in
      (* global: falsified when a scenario leaves every correct process
         without progress: a blocked or winner-starved adversary run, or
         the solo matrix's runner starving while the faulty process is
         crashed (hence not correct). *)
      let adv =
        Tm_adversary.Adversary.run ~rounds:20 entry
          Tm_adversary.Adversary.Algorithm_1
      in
      let solo entry fate =
        let spec =
          Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps:4000 ~seed:1
            ~sched:Tm_sim.Runner.Round_robin
            ~fates:[ (1, fate) ]
            ()
        in
        (Tm_sim.Runner.run entry spec).Tm_sim.Runner.commits.(2) >= 10
      in
      let depth =
        match name with "tl2" | "ostm" | "norec" | "mvstm" -> 2 | _ -> 0
      in
      let crash_ok =
        solo entry (Tm_sim.Runner.Crash_after_write 1)
        && solo entry (Tm_sim.Runner.Crash_mid_commit depth)
      in
      let para_ok = solo entry (Tm_sim.Runner.Parasitic_from 10) in
      let global_falsified =
        adv.Tm_adversary.Adversary.blocked
        || adv.Tm_adversary.Adversary.winner_starved
        || not crash_ok
        (* a crashed p1 is faulty, so a starving p2 falsifies global *)
      in
      let global = if global_falsified then "falsified" else "not falsified" in
      let solo_verdict =
        if crash_ok && para_ok then "not falsified" else "falsified"
      in
      Fmt.pr "    %-18s %-22s %-22s %s@." name local global solo_verdict)
    Reg.all;
  (* The frontier the paper proves and the zoo realizes: local progress is
     impossible (every row), global progress is achievable (fgp, ostm
     survive everything we have), and in between the lock-based designs
     keep only conditional solo progress. *)
  let survives name =
    let entry = Option.get (Reg.find name) in
    let adv =
      Tm_adversary.Adversary.run ~rounds:20 entry
        Tm_adversary.Adversary.Algorithm_1
    in
    (not adv.Tm_adversary.Adversary.blocked)
    && not adv.Tm_adversary.Adversary.winner_starved
  in
  check "fgp's global progress survives the adversary" ~paper:true
    ~measured:(survives "fgp");
  check "ostm's global progress survives the adversary" ~paper:true
    ~measured:(survives "ostm")

(* ------------------------------------------------------------------ *)
(* P2a: contention-manager ablation / contention sweep. *)

let ablation () =
  section "P2a" "ablation: commits by contention level (3 procs, 4000 steps)";
  Fmt.pr "    %-18s %6s %6s %6s@." "TM" "x1" "x4" "x16";
  List.iter
    (fun entry ->
      let commits ntvars =
        let spec =
          Tm_sim.Runner.spec ~nprocs:3 ~ntvars ~steps:4000 ~seed:7
            ~sched:Tm_sim.Runner.Uniform ()
        in
        Tm_sim.Runner.commit_total (Tm_sim.Runner.run entry spec)
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
      Tm_sim.Runner.spec ~nprocs:3 ~ntvars:2 ~steps:4000 ~seed:11 ~sched ()
    in
    let o = Tm_sim.Runner.run entry spec in
    let per = Array.to_list o.Tm_sim.Runner.commits |> List.tl in
    (Tm_sim.Runner.commit_total o, List.fold_left min max_int per)
  in
  List.iter
    (fun entry ->
      let t1, m1 = run entry Tm_sim.Runner.Round_robin in
      let t2, m2 = run entry Tm_sim.Runner.Uniform in
      let t3, m3 = run entry (Tm_sim.Runner.Quantum 25) in
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
      Tm_sim.Runner.spec ~nprocs:3 ~ntvars:4 ~steps:6000 ~seed:13
        ~sched:Tm_sim.Runner.Uniform
        ~workload:(Tm_sim.Workload.read_heavy ~ntvars:4 ~reads:(len - 2))
        ()
    in
    let o = Tm_sim.Runner.run entry spec in
    let c = Tm_sim.Runner.commit_total o and a = Tm_sim.Runner.abort_total o in
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
  let t0 = Unix.gettimeofday () in
  List.init workers (fun d ->
      Domain.spawn (fun () ->
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
  |> List.iter Domain.join;
  let dt = Unix.gettimeofday () -. t0 in
  let commits, aborts = Tm_stm.Stm.stats () in
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
  let measure_tl2 domains =
    let tvars = Array.init domains (fun _ -> Tm_stm.Stm.tvar 0) in
    let t0 = Unix.gettimeofday () in
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to iters do
              Tm_stm.Stm.atomically (fun () ->
                  Tm_stm.Stm.write tvars.(d) (Tm_stm.Stm.read tvars.(d) + 1))
            done))
    |> List.iter Domain.join;
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int (domains * iters) /. (dt *. 1000.)
  in
  let measure_lock domains =
    let tvars = Array.init domains (fun _ -> Tm_stm.Stm_lock.tvar 0) in
    let t0 = Unix.gettimeofday () in
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to iters do
              Tm_stm.Stm_lock.atomically (fun () ->
                  Tm_stm.Stm_lock.write tvars.(d)
                    (Tm_stm.Stm_lock.read tvars.(d) + 1))
            done))
    |> List.iter Domain.join;
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int (domains * iters) /. (dt *. 1000.)
  in
  Fmt.pr "    %-10s %12s %12s@." "domains" "tl2-stm" "lock-stm";
  let tl2_1 = ref 0. and tl2_4 = ref 0. in
  let lock_1 = ref 0. and lock_4 = ref 0. in
  List.iter
    (fun d ->
      let a = measure_tl2 d and b = measure_lock d in
      if d = 1 then begin
        tl2_1 := a;
        lock_1 := b
      end;
      if d = 4 then begin
        tl2_4 := a;
        lock_4 := b
      end;
      Fmt.pr "    %-10d %12.0f %12.0f@." d a b)
    [ 1; 2; 4 ];
  let tl2_speedup = !tl2_4 /. !tl2_1 and lock_speedup = !lock_4 /. !lock_1 in
  Fmt.pr "    4-domain speedup: tl2-stm %.2fx, lock-stm %.2fx@." tl2_speedup
    lock_speedup;
  let cores = Domain.recommended_domain_count () in
  if cores >= 4 then
    check "resilient TM scales better than the global lock (footnote 1)"
      ~paper:true
      ~measured:(tl2_speedup > lock_speedup)
  else
    (* Hardware gate: this machine cannot exhibit parallel speedup at all
       (documented substitution — the claim needs >= 4 cores, found
       fewer).  The correctness side is still checked: both runtimes must
       have executed every transaction. *)
    Fmt.pr
      "    only %d core(s) available: parallel speedup not measurable \
       here;@.    skipping the scaling check (see EXPERIMENTS.md, P3)@."
      cores

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
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq, t_seq = time (fun () -> Tm_sim.Sweep.run configs) in
  let par, t_par =
    time (fun () ->
        Tm_sim.Pool.with_pool ~jobs:4 (fun pool ->
            Tm_sim.Sweep.run ~pool configs))
  in
  check "parallel sweep equals sequential sweep byte-for-byte" ~paper:true
    ~measured:(Tm_sim.Sweep.to_json seq = Tm_sim.Sweep.to_json par);
  check "every run's history equals its sequential twin" ~paper:true
    ~measured:
      (List.for_all2
         (fun a b ->
           History.equal a.Tm_sim.Sweep.r_outcome.Tm_sim.Runner.history
             b.Tm_sim.Sweep.r_outcome.Tm_sim.Runner.history)
         seq par);
  Fmt.pr "  %d runs: sequential %.3fs, 4 jobs %.3fs (%.2fx)@."
    (List.length configs) t_seq t_par (t_seq /. t_par);
  let cores = Domain.recommended_domain_count () in
  if cores >= 4 then
    check "4-job sweep is >= 2x faster on >= 4 cores" ~paper:true
      ~measured:(t_seq /. t_par >= 2.0)
  else
    (* Hardware gate: parallel speedup is not measurable on this machine
       (documented substitution — the claim needs >= 4 cores, found
       fewer).  Determinism, which does not need cores, is checked
       above. *)
    Fmt.pr
      "    only %d core(s) available: skipping the speedup check (see \
       EXPERIMENTS.md, P4)@."
      cores;
  Fmt.pr "  per-TM abort-cause breakdown (read/write/commit) over the grid:@.";
  List.iter
    (fun (name, m) ->
      Fmt.pr "    %-18s commits %6d  aborts %6d = %5d/%5d/%5d  commit-lat \
              mean %5.1f ev@."
        name m.Tm_sim.Metrics.commits m.Tm_sim.Metrics.aborts
        m.Tm_sim.Metrics.abort_causes.Tm_sim.Metrics.on_read
        m.Tm_sim.Metrics.abort_causes.Tm_sim.Metrics.on_write
        m.Tm_sim.Metrics.abort_causes.Tm_sim.Metrics.on_commit
        (Tm_sim.Metrics.hist_mean m.Tm_sim.Metrics.commit_latency))
    (Tm_sim.Sweep.by_tm seq)

(* ------------------------------------------------------------------ *)
(* P5: tracing overhead — the flag-off hot path must cost nothing
   measurable, the null sink must stay within noise, and the ring sink
   must stay bounded (drop, not grow).  Wall-clock timings use a
   min-of-3-trials protocol to shave scheduler noise; see
   EXPERIMENTS.md §P5. *)

let p5_trace_overhead () =
  section "P5" "tracing overhead: off vs null sink vs ring sink";
  let iters = 200_000 in
  let v = Tm_stm.Stm.tvar 0 in
  let work () =
    for _ = 1 to iters do
      Tm_stm.Stm.atomically (fun () ->
          Tm_stm.Stm.write v (Tm_stm.Stm.read v + 1))
    done
  in
  let time_once f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let min3 f = List.fold_left min infinity (List.init 3 (fun _ -> time_once f)) in
  work () (* warm-up *);
  let t_off = min3 work in
  Tm_stm.Stm.Trace.start_null ();
  let t_null = min3 work in
  let null_emitted = Tm_stm.Stm.Trace.emitted () in
  Tm_stm.Stm.Trace.stop ();
  (* Read before the ring run below repopulates the registry. *)
  let null_stored = Tm_stm.Stm.Trace.events () in
  let ring_capacity = 4096 in
  Tm_stm.Stm.Trace.start ~capacity:ring_capacity ();
  let t_ring = min3 work in
  Tm_stm.Stm.Trace.stop ();
  let ring_retained = List.length (Tm_stm.Stm.Trace.events ()) in
  let ring_dropped = Tm_stm.Stm.Trace.dropped () in
  let per_txn t = 1e9 *. t /. float_of_int iters in
  (* null_emitted spans the 3 timed trials; t_null is one trial. *)
  let events_per_trial = float_of_int null_emitted /. 3.0 in
  let null_ns_per_event = 1e9 *. (t_null -. t_off) /. events_per_trial in
  Fmt.pr "  %d single-domain increments, min of 3 trials:@." iters;
  Fmt.pr "    tracing off   %.4fs (%5.1f ns/txn)@." t_off (per_txn t_off);
  Fmt.pr
    "    null sink     %.4fs (%5.1f ns/txn, %.2fx, %d events emitted, \
     %.1f ns/event)@."
    t_null (per_txn t_null) (t_null /. t_off) null_emitted null_ns_per_event;
  Fmt.pr
    "    ring sink     %.4fs (%5.1f ns/txn, %.2fx, %d retained / %d \
     dropped)@."
    t_ring (per_txn t_ring) (t_ring /. t_off) ring_retained ring_dropped;
  check "null-sink dispatch cheap per event (< 100 ns/event)" ~paper:true
    ~measured:(null_ns_per_event < 100.0);
  check "null sink counted emissions without storing them" ~paper:true
    ~measured:(null_emitted > 0 && null_stored = []);
  check "ring sink bounded: retains <= capacity and drops the rest"
    ~paper:true
    ~measured:(ring_retained <= ring_capacity && ring_dropped > 0);
  (* The simulator's recorder, for scale (informational): the collector
     allocates per event, so some slowdown is expected and fine — sim
     traces are for bounded forensic runs, not steady-state production. *)
  let entry = Option.get (Reg.find "tl2") in
  let spec =
    Tm_sim.Runner.spec ~nprocs:3 ~ntvars:4 ~steps:2000 ~seed:1
      ~sched:Tm_sim.Runner.Uniform ()
  in
  let t_plain = min3 (fun () -> ignore (Tm_sim.Runner.run entry spec)) in
  let t_traced =
    min3 (fun () ->
        let col = Tm_trace.Sink.collector () in
        ignore
          (Tm_sim.Runner.run
             ~trace:(Tm_trace.Sink.collector_sink col)
             entry spec))
  in
  Fmt.pr "  runner, 2000 steps: untraced %.4fs, traced %.4fs (%.2fx)@."
    t_plain t_traced
    (t_traced /. t_plain)

(* ------------------------------------------------------------------ *)
(* P6: the lint engine — clean corpora really lint clean, the race
   checker turns up nothing on a real contended multicore trace, and the
   analyzers are fast enough to gate CI. *)

let p6_analysis () =
  section "P6" "analysis pass: findings and lint throughput";
  let module An = Tm_analysis in
  let figure_findings =
    List.concat_map
      (fun (name, h) -> An.Engine.run_history ~subject:name h)
      Figures.all_finite
    @ List.concat_map
        (fun (name, l) -> An.Engine.run_lasso ~subject:name l)
        Figures.all_lassos
  in
  check_int "figures corpus findings" ~paper:0
    ~measured:(List.length figure_findings);
  (* A contended multicore run of the real STM, traced and linted. *)
  let n = 4 in
  let accounts = Array.init n (fun _ -> Tm_stm.Stm.tvar 100) in
  Tm_stm.Stm.Trace.start ~capacity:(1 lsl 18) ();
  let worker k () =
    for i = 1 to 2000 do
      let src = (i * (k + 1)) mod n and dst = (i + k) mod n in
      Tm_stm.Stm.atomically (fun () ->
          let v = Tm_stm.Stm.read accounts.(src) in
          Tm_stm.Stm.write accounts.(src) (v - 1);
          Tm_stm.Stm.write accounts.(dst)
            (Tm_stm.Stm.read accounts.(dst) + 1))
    done
  in
  let domains = List.init 4 (fun k -> Domain.spawn (worker k)) in
  List.iter Domain.join domains;
  Tm_stm.Stm.Trace.stop ();
  let events = Tm_stm.Stm.Trace.events () in
  let truncated = Tm_stm.Stm.Trace.dropped () > 0 in
  if truncated then
    Fmt.pr "  (ring truncated; skipping the protocol lint)@."
  else begin
    let t0 = Unix.gettimeofday () in
    let findings = An.Engine.run_trace ~subject:"stm" events in
    let dt = Unix.gettimeofday () -. t0 in
    Fmt.pr "  linted %d trace events in %.3fs (%.0f events/s)@."
      (List.length events) dt
      (float_of_int (List.length events) /. dt);
    check_int "multicore commit-protocol findings" ~paper:0
      ~measured:(List.length findings);
    check "TL2 canonical order: every lock-order edge ascends" ~paper:true
      ~measured:
        (List.for_all (fun (a, b) -> a < b)
           (An.Trace_lint.lock_order_edges events))
  end

(* ------------------------------------------------------------------ *)
(* P7: fault-site overhead — the Stm.Obs sites must be free while
   nothing is subscribed (one relaxed Atomic.get per site, same
   contract as P5's tracing) and cheap when a no-op plan is subscribed
   (< 100 ns per fault site, P5's null-sink bound: the armed cost of
   every site a transaction delivers, over the read, lock, validate,
   publish and commit sites a plan can act on).  See EXPERIMENTS.md
   §P7. *)

let p7_chaos_overhead () =
  section "P7" "chaos hooks: disarmed vs no-op handler on the Stm hot path";
  let iters = 200_000 in
  let v = Tm_stm.Stm.tvar 0 in
  let work () =
    for _ = 1 to iters do
      Tm_stm.Stm.atomically (fun () ->
          Tm_stm.Stm.write v (Tm_stm.Stm.read v + 1))
    done
  in
  let time_once f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let min3 f = List.fold_left min infinity (List.init 3 (fun _ -> time_once f)) in
  work () (* warm-up *);
  let t_off = min3 work in
  (* Count the sites one trial delivers, and the fault sites among them
     (a counting subscriber, outside the timed runs). *)
  let module Obs = Tm_stm.Stm.Obs in
  let fired = Atomic.make 0 and faultable = Atomic.make 0 in
  let counting =
    Obs.subscribe (fun site _ _ ->
        Atomic.incr fired;
        (match site with
        | Obs.Read | Obs.Lock | Obs.Validate | Obs.Publish | Obs.Commit ->
            Atomic.incr faultable
        | _ -> ());
        Obs.Proceed)
  in
  work ();
  let events_per_trial = Atomic.get fired in
  Obs.unsubscribe counting;
  let noop = Obs.subscribe (fun _ _ _ -> Obs.Proceed) in
  let t_armed = min3 work in
  Obs.unsubscribe noop;
  let t_disarmed = min3 work in
  let faults_per_trial = Atomic.get faultable in
  let per_txn t = 1e9 *. t /. float_of_int iters in
  let armed_ns_per_event =
    1e9 *. (t_armed -. t_off) /. float_of_int faults_per_trial
  in
  Fmt.pr "  %d single-domain increments, min of 3 trials:@." iters;
  Fmt.pr "    sites disarmed  %.4fs (%5.1f ns/txn)@." t_off (per_txn t_off);
  Fmt.pr
    "    no-op plan      %.4fs (%5.1f ns/txn, %.2fx, %d sites and %d fault \
     sites/trial, %.1f ns/fault site)@."
    t_armed (per_txn t_armed) (t_armed /. t_off) events_per_trial
    faults_per_trial armed_ns_per_event;
  Fmt.pr "    uninstalled     %.4fs (%5.1f ns/txn, %.2fx)@." t_disarmed
    (per_txn t_disarmed)
    (t_disarmed /. t_off);
  check "every commit fires lock/validate/pre/post points" ~paper:true
    ~measured:(faults_per_trial >= 4 * iters);
  check "armed no-op dispatch cheap per event (< 100 ns/event)" ~paper:true
    ~measured:(armed_ns_per_event < 100.0);
  (* Uninstall must restore the baseline: the disarmed run after the
     armed one stays within noise of the first disarmed run. *)
  check "uninstall restores the disarmed fast path (< 1.5x)" ~paper:true
    ~measured:(t_disarmed /. t_off < 1.5)

(* ------------------------------------------------------------------ *)
(* P8: telemetry overhead — the Stm.Obs sites must cost nothing
   measurable while nothing is subscribed (one relaxed Atomic.get per
   site, the P5/P7 contract), stay under 100 ns per probe event with
   the real registry-backed probe subscribed (the armed cost of every
   site delivered, over the begin, read, lock, validate, publish,
   commit and abort sites the probe instruments), and a registry scrape
   must read instruments, not events: its cost cannot grow with the
   event volume the instruments absorbed.  See EXPERIMENTS.md §P8. *)

let p8_telemetry_overhead () =
  section "P8" "telemetry: disarmed vs armed Stm probe, scrape cost";
  let iters = 200_000 in
  let v = Tm_stm.Stm.tvar 0 in
  let work () =
    for _ = 1 to iters do
      Tm_stm.Stm.atomically (fun () ->
          Tm_stm.Stm.write v (Tm_stm.Stm.read v + 1))
    done
  in
  let time_once f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let min3 f = List.fold_left min infinity (List.init 3 (fun _ -> time_once f)) in
  work () (* warm-up *);
  let t_off = min3 work in
  (* Count the probe events one trial delivers (a counting subscriber,
     outside the timed runs). *)
  let module Obs = Tm_stm.Stm.Obs in
  let fired = Atomic.make 0 in
  let counting =
    Obs.subscribe (fun site _ _ ->
        (match site with
        | Obs.Begin | Obs.Read | Obs.Lock | Obs.Validate | Obs.Publish
        | Obs.Commit | Obs.Abort _ ->
            Atomic.incr fired
        | _ -> ());
        Obs.Proceed)
  in
  work ();
  let events_per_trial = Atomic.get fired in
  Obs.unsubscribe counting;
  (* The real thing: registry-backed counters and ns histograms, the
     monotonic clock included. *)
  let reg = Tm_telemetry.Registry.create () in
  let _, probe = Tm_telemetry.Stm_probe.install reg in
  let t_armed = min3 work in
  Obs.unsubscribe probe;
  let t_disarmed = min3 work in
  let per_txn t = 1e9 *. t /. float_of_int iters in
  let armed_ns_per_event =
    1e9 *. (t_armed -. t_off) /. float_of_int events_per_trial
  in
  let disarmed_ns_per_event =
    1e9 *. (t_disarmed -. t_off) /. float_of_int events_per_trial
  in
  Fmt.pr "  %d single-domain increments, min of 3 trials:@." iters;
  Fmt.pr "    probe disarmed  %.4fs (%5.1f ns/txn)@." t_off (per_txn t_off);
  Fmt.pr
    "    registry probe  %.4fs (%5.1f ns/txn, %.2fx, %d events/trial, %.1f \
     ns/event)@."
    t_armed (per_txn t_armed) (t_armed /. t_off) events_per_trial
    armed_ns_per_event;
  Fmt.pr "    uninstalled     %.4fs (%5.1f ns/txn, %.2fx, %.1f ns/event)@."
    t_disarmed
    (per_txn t_disarmed)
    (t_disarmed /. t_off) disarmed_ns_per_event;
  check "begin/read/commit and timed phases all fire" ~paper:true
    ~measured:(events_per_trial >= 4 * iters);
  check "disarmed seam costs nothing measurable (< 100 ns/event)"
    ~paper:true
    ~measured:(disarmed_ns_per_event < 100.0);
  check "armed registry probe cheap per event (< 100 ns/event)" ~paper:true
    ~measured:(armed_ns_per_event < 100.0);
  check "uninstall restores the disarmed fast path (< 1.5x)" ~paper:true
    ~measured:(t_disarmed /. t_off < 1.5);
  (* Scrape cost is a function of the registered instruments, not of how
     many events they absorbed: scraping the registry that just took
     ~10^6 events must cost the same as scraping an identical fresh
     one. *)
  let scrapes = 2000 in
  let time_scrapes r =
    min3 (fun () ->
        for i = 1 to scrapes do
          ignore (Tm_telemetry.Registry.scrape r ~ts:i)
        done)
  in
  let fresh = Tm_telemetry.Registry.create () in
  ignore (Tm_telemetry.Stm_probe.register fresh);
  let t_fresh = time_scrapes fresh in
  let t_loaded = time_scrapes reg in
  Fmt.pr
    "  %d scrapes: fresh registry %.4fs (%5.1f us/scrape), after ~%dk \
     events %.4fs (%5.1f us/scrape, %.2fx)@."
    scrapes t_fresh
    (1e6 *. t_fresh /. float_of_int scrapes)
    (3 * events_per_trial / 1000)
    t_loaded
    (1e6 *. t_loaded /. float_of_int scrapes)
    (t_loaded /. t_fresh);
  check "scrape cost independent of absorbed event volume (< 2x)"
    ~paper:true
    ~measured:(t_loaded /. t_fresh < 2.0)

(* ------------------------------------------------------------------ *)
(* P1: bechamel timing benches. *)

let bechamel_benches () =
  section "P1" "bechamel timing benches (ns/run, OLS estimate)";
  let open Bechamel in
  let checker_history ntxns =
    let steps =
      List.concat
        (List.init ntxns (fun i ->
             let p = (i mod 3) + 1 in
             let x = i mod 4 in
             [ History.read p x 0; History.write p x 0; History.commit p ]))
    in
    History.steps steps
  in
  let h20 = checker_history 20 and h60 = checker_history 60 in
  let fig16 = Figures.fig16 in
  let adversary_entry = Option.get (Reg.find "fgp") in
  let sim_entry = Option.get (Reg.find "tl2") in
  let sim_spec =
    Tm_sim.Runner.spec ~nprocs:3 ~ntvars:4 ~steps:500 ~seed:1
      ~sched:Tm_sim.Runner.Uniform ()
  in
  let tests =
    [
      Test.make ~name:"opacity-check-fig16"
        (Staged.stage (fun () -> Tm_safety.Opacity.is_opaque fig16));
      Test.make ~name:"opacity-check-20txn"
        (Staged.stage (fun () -> Tm_safety.Opacity.is_opaque h20));
      Test.make ~name:"opacity-check-60txn"
        (Staged.stage (fun () -> Tm_safety.Opacity.is_opaque h60));
      Test.make ~name:"lint-history-60txn"
        (Staged.stage (fun () ->
             Tm_analysis.Engine.run_history ~subject:"bench" h60));
      Test.make ~name:"liveness-classify-fig7"
        (Staged.stage (fun () -> Tm_liveness.Property.verdict Figures.fig7));
      Test.make ~name:"adversary-round-fgp"
        (Staged.stage (fun () ->
             Tm_adversary.Adversary.run ~rounds:1 adversary_entry
               Tm_adversary.Adversary.Algorithm_1));
      Test.make ~name:"simulate-500-steps-tl2"
        (Staged.stage (fun () -> Tm_sim.Runner.run sim_entry sim_spec));
      Test.make ~name:"fgp-fig15-enumeration"
        (Staged.stage (fun () ->
             let cfg = Tm_impl.Tm_intf.config ~nprocs:1 ~ntvars:1 () in
             Tm_automaton.Explorer.reachable
               ~make:(fun () -> Tm_impl.Fgp.create cfg)
               ~snapshot:Tm_impl.Fgp.state
               ~actions:(fun t ->
                 match Tm_impl.Fgp.pending t 1 with
                 | Some _ -> [ `Poll ]
                 | None ->
                     [
                       `I (Event.Read 0);
                       `I (Event.Write (0, 1));
                       `I Event.Try_commit;
                     ])
               ~apply:(fun t a ->
                 match a with
                 | `I inv -> Tm_impl.Fgp.invoke t 1 inv
                 | `Poll -> ignore (Tm_impl.Fgp.poll t 1))
               ()));
      Test.make ~name:"stm-atomically-increment"
        (let v = Tm_stm.Stm.tvar 0 in
         Staged.stage (fun () ->
             Tm_stm.Stm.atomically (fun () ->
                 Tm_stm.Stm.write v (Tm_stm.Stm.read v + 1))));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"tm" tests) in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, estimate) ->
      match Analyze.OLS.estimates estimate with
      | Some [ ns ] -> Fmt.pr "  %-42s %12.1f ns/run@." name ns
      | Some _ | None -> Fmt.pr "  %-42s (no estimate)@." name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)
(* P9: the Kuznetsov–Ravi separation, measured.  "Why Transactional
   Memory Should Not Be Obstruction-Free" predicts that obstruction-free
   TMs pay a complexity premium over progressive lock-based ones; the
   observable proxy on real hardware is wasted work — aborts per commit
   — under rising contention on a hot conflicting workload.  DSTM's
   total stealing aborts rivals that TL2's per-location vlocks would
   simply have serialized, so its aborts/commit must be at least TL2's
   at the top of the domain ladder.  The full zoo trajectory (all four
   cores across the ladder) is recorded to BENCH_zoo.json
   ([TM_BENCH_ZOO_OUT] overrides the path) as the repo's benchmark
   artifact; the verdict is hardware-gated like P3/P4 — with fewer than
   4 cores the contention the claim needs cannot be produced. *)

let p9_zoo_separation () =
  let module Stm = Tm_stm.Stm in
  section "P9"
    "zoo separation: obstruction-free vs progressive under contention";
  let iters = 20_000 in
  let ladder = [ 1; 2; 4 ] in
  let run_one algo domains =
    Stm.with_algo algo (fun () ->
        let hot = Array.init 2 (fun _ -> Stm.tvar 0) in
        let c0, a0 = Stm.stats () in
        let t0 = Unix.gettimeofday () in
        List.init domains (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to iters do
                  Stm.atomically (fun () ->
                      let a = Stm.read hot.(0) in
                      let b = Stm.read hot.(1) in
                      Stm.write hot.(0) (a + 1);
                      Stm.write hot.(1) (b + 1))
                done))
        |> List.iter Domain.join;
        let dt = Unix.gettimeofday () -. t0 in
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
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          body ()
        done;
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps)
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
  let out =
    Option.value ~default:"BENCH_zoo.json" (Sys.getenv_opt "TM_BENCH_ZOO_OUT")
  in
  let cores = Domain.recommended_domain_count () in
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
  let oc = open_out out in
  let json =
    Fmt.str
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
      dstm_growth tl2_growth complexity_holds peak dstm_apc tl2_apc holds
  in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "    trajectory written to %s@." out;
  if cores >= 4 then
    check
      (Fmt.str
         "dstm aborts/commit >= tl2 aborts/commit at %d domains \
          (Kuznetsov-Ravi)"
         peak)
      ~paper:true ~measured:holds
  else
    Fmt.pr
      "    only %d core(s) available: contention separation not \
       measurable here;@.    skipping the separation check (see \
       EXPERIMENTS.md, P9)@."
      cores

(* ------------------------------------------------------------------ *)
(* P10: blame-attribution overhead — the Stm.Obs sites must cost
   nothing measurable while nothing is subscribed (conflict sites check
   one atomic flag and only on abort paths; the commit site adds one
   load per commit), stay under 100 ns per blame event (one per
   uncontended commit) with a counting subscriber, every site's
   dispatch included, and the armed attribution must be truthful:
   under two-domain write-write contention the DSTM core produces
   Stolen edges while TL2 produces none (TL2 has no stealing to
   attribute).  See EXPERIMENTS.md §P10. *)

let p10_blame_overhead () =
  let module Stm = Tm_stm.Stm in
  section "P10" "blame: disarmed vs armed attribution seam, stolen edges";
  let iters = 200_000 in
  let v = Stm.tvar 0 in
  let work () =
    for _ = 1 to iters do
      Stm.atomically (fun () -> Stm.write v (Stm.read v + 1))
    done
  in
  let time_once f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let min3 f = List.fold_left min infinity (List.init 3 (fun _ -> time_once f)) in
  work () (* warm-up *);
  let t_off = min3 work in
  (* A counting subscriber that takes what the blame graph takes: the
     conflict sites and the commit site's progress watermark.
     Uncontended single-domain increments produce no blame edges, so
     that is one event per commit; every other site is delivered and
     ignored, and its dispatch is part of the armed cost. *)
  let fired = Atomic.make 0 in
  let counting =
    Stm.Obs.subscribe (fun site _ _ ->
        (match site with
        | Stm.Obs.Conflict _ | Stm.Obs.Commit -> Atomic.incr fired
        | _ -> ());
        Stm.Obs.Proceed)
  in
  work ();
  let events_per_trial = Atomic.get fired in
  let t_armed = min3 work in
  Stm.Obs.unsubscribe counting;
  let t_disarmed = min3 work in
  let per_txn t = 1e9 *. t /. float_of_int iters in
  let armed_ns_per_event =
    1e9 *. (t_armed -. t_off) /. float_of_int events_per_trial
  in
  let disarmed_ns_per_event =
    1e9 *. (t_disarmed -. t_off) /. float_of_int events_per_trial
  in
  Fmt.pr "  %d single-domain increments, min of 3 trials:@." iters;
  Fmt.pr "    seam disarmed   %.4fs (%5.1f ns/txn)@." t_off (per_txn t_off);
  Fmt.pr
    "    counting sub    %.4fs (%5.1f ns/txn, %.2fx, %d events/trial, %.1f \
     ns/event)@."
    t_armed (per_txn t_armed) (t_armed /. t_off) events_per_trial
    armed_ns_per_event;
  Fmt.pr "    uninstalled     %.4fs (%5.1f ns/txn, %.2fx, %.1f ns/event)@."
    t_disarmed (per_txn t_disarmed)
    (t_disarmed /. t_off)
    disarmed_ns_per_event;
  check "every commit ticks the progress watermark" ~paper:true
    ~measured:(events_per_trial >= iters);
  check "disarmed blame seam costs nothing measurable (< 100 ns/event)"
    ~paper:true
    ~measured:(disarmed_ns_per_event < 100.0);
  check "armed counting sink cheap per event (< 100 ns/event)" ~paper:true
    ~measured:(armed_ns_per_event < 100.0);
  check "uninstall restores the disarmed fast path (< 1.5x)" ~paper:true
    ~measured:(t_disarmed /. t_off < 1.5);
  (* Truthful causes: two domains hammering two shared t-variables.
     DSTM acquires eagerly and resolves conflicts by stealing, so the
     blame graph must carry Stolen edges; TL2 has no stealing, so a
     Stolen edge under TL2 would be a lie. *)
  let iters2 = 50_000 in
  let contend algo =
    Stm.with_algo algo (fun () ->
        let reg = Tm_telemetry.Registry.create () in
        let g = Tm_telemetry.Blame_graph.create reg ~domains:2 in
        let sub = Stm.Obs.subscribe (Tm_telemetry.Blame_graph.subscriber g) in
        let hot = Array.init 2 (fun _ -> Stm.tvar 0) in
        List.init 2 (fun d ->
            Domain.spawn (fun () ->
                Stm.Obs.set_self d;
                for _ = 1 to iters2 do
                  Stm.atomically (fun () ->
                      let a = Stm.read hot.(0) in
                      let b = Stm.read hot.(1) in
                      Stm.write hot.(0) (a + 1);
                      Stm.write hot.(1) (b + 1))
                done;
                Stm.Obs.set_self (-1)))
        |> List.iter Domain.join;
        Stm.Obs.unsubscribe sub;
        ( List.assoc Stm.Obs.Stolen (Tm_telemetry.Blame_graph.cause_counts g),
          Tm_telemetry.Blame_graph.clock g ))
  in
  (* Steal windows are a few hundred ns wide, so one round can get
     unlucky; accumulate rounds until a steal shows (the TL2 zero is
     exact — no retry needed to trust it). *)
  let rec accumulate algo stolen clock rounds =
    let s, c = contend algo in
    let stolen = stolen + s and clock = clock + c in
    if stolen > 0 || rounds <= 1 then (stolen, clock)
    else accumulate algo stolen clock (rounds - 1)
  in
  let dstm_stolen, dstm_clock = accumulate Stm.Algo.Dstm 0 0 5 in
  let tl2_stolen, tl2_clock = contend Stm.Algo.Tl2 in
  Fmt.pr
    "  2 domains x %d contended increments: dstm %d stolen / %d ticks, tl2 \
     %d stolen / %d ticks@."
    iters2 dstm_stolen dstm_clock tl2_stolen tl2_clock;
  check "dstm attributes its steals (Stolen edges > 0)" ~paper:true
    ~measured:(dstm_stolen > 0);
  check "tl2 shows no Stolen edges (nothing to steal)" ~paper:true
    ~measured:(tl2_stolen = 0);
  let out =
    Option.value ~default:"BENCH_blame.json"
      (Sys.getenv_opt "TM_BENCH_BLAME_OUT")
  in
  let oc = open_out out in
  output_string oc
    (Fmt.str
       "{\"experiment\":\"P10\",\"claim\":\"blame seam free when disarmed, \
        truthful when armed\",\"iters\":%d,\"seam\":{\"baseline_s\":%.4f,\
        \"armed_s\":%.4f,\"uninstalled_s\":%.4f,\"events_per_trial\":%d,\
        \"armed_ns_per_event\":%.1f,\"disarmed_ns_per_event\":%.1f},\
        \"separation\":{\"iters_per_domain\":%d,\"dstm_stolen\":%d,\
        \"tl2_stolen\":%d,\"holds\":%b}}\n"
       iters t_off t_armed t_disarmed events_per_trial armed_ns_per_event
       disarmed_ns_per_event iters2 dstm_stolen tl2_stolen
       (dstm_stolen > 0 && tl2_stolen = 0));
  close_out oc;
  Fmt.pr "    blame numbers written to %s@." out

(* P11: the static analyzer as a gate — tmstatic must find a clean
   checkout clean (zero findings over the whole tree), run in
   interactive time (parsing and checking every scanned file well
   within a CI-friendly bound), and be deterministic (two runs produce
   byte-identical findings JSON).  See EXPERIMENTS.md §P11. *)

let p11_static_analysis () =
  let module Sc = Tm_staticcheck.Checker in
  let module F = Tm_analysis.Finding in
  section "P11" "tmstatic: whole-tree static checks, runtime, determinism";
  match Sc.find_root () with
  | None ->
      check "repo root found from the bench cwd" ~paper:true ~measured:false
  | Some root ->
      let run_once () =
        let t0 = Unix.gettimeofday () in
        let r = Sc.run ~root () in
        (Unix.gettimeofday () -. t0, r)
      in
      ignore (run_once ()) (* warm-up *);
      let t1, r1 = run_once () in
      let t2, r2 = run_once () in
      let t_best = min t1 t2 in
      (match (r1, r2) with
      | Ok a, Ok b ->
          let ja = F.list_to_json a.Sc.findings
          and jb = F.list_to_json b.Sc.findings in
          let errors = List.length (List.filter F.is_error a.Sc.findings) in
          Fmt.pr
            "  %d files scanned in %.3fs (best of 2), %d finding(s), %d \
             error(s)@."
            a.Sc.files_scanned t_best
            (List.length a.Sc.findings)
            errors;
          List.iter (fun f -> Fmt.pr "    %a@." F.pp f) a.Sc.findings;
          check "clean tree has zero error findings" ~paper:true
            ~measured:(errors = 0);
          check "whole-tree check runs in interactive time (< 5 s)"
            ~paper:true ~measured:(t_best < 5.0);
          check "two runs produce byte-identical findings JSON" ~paper:true
            ~measured:(ja = jb);
          check "the scan covers a real tree (>= 10 files)" ~paper:true
            ~measured:(a.Sc.files_scanned >= 10);
          let out =
            Option.value ~default:"BENCH_static.json"
              (Sys.getenv_opt "TM_BENCH_STATIC_OUT")
          in
          let oc = open_out out in
          output_string oc
            (Fmt.str
               "{\"experiment\":\"P11\",\"claim\":\"tmstatic gates the seam \
                discipline: clean tree, interactive runtime, deterministic \
                output\",\"files_scanned\":%d,\"runtime_s\":%.3f,\
                \"findings\":%d,\"errors\":%d,\"deterministic\":%b}\n"
               a.Sc.files_scanned t_best
               (List.length a.Sc.findings)
               errors (ja = jb));
          close_out oc;
          Fmt.pr "    static numbers written to %s@." out
      | Error msg, _ | _, Error msg ->
          Fmt.pr "  static run failed: %s@." msg;
          check "static analyzer runs over the checkout" ~paper:true
            ~measured:false)

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
   (batching on/off x domains) goes to BENCH_serve.json
   ([TM_BENCH_SERVE_OUT] overrides the path). *)

let p12_serve () =
  let module Stm = Tm_stm.Stm in
  let module Store = Tm_serve.Store in
  let module Workload = Tm_serve.Workload in
  let module Server = Tm_serve.Server in
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
  let cores = Domain.recommended_domain_count () in
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
        (Server.chaos_run plan cfg).Server.k_ok
  in
  let chaos = List.map (fun a -> (a, chaos_ok a)) Stm.Algo.all in
  List.iter
    (fun (algo, ok) ->
      check
        (Fmt.str "crash-holding-locks verdicts hold on the serving path (%s)"
           (Stm.Algo.name algo))
        ~paper:true ~measured:ok)
    chaos;
  let out =
    Option.value ~default:"BENCH_serve.json"
      (Sys.getenv_opt "TM_BENCH_SERVE_OUT")
  in
  let oc = open_out out in
  let json =
    Fmt.str
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
            chaos))
  in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "    trajectory written to %s@." out;
  if cores >= 4 then
    check
      (Fmt.str
         "flat-combining beats naive on conflict work at %d domains \
          (%d vs %d aborts)"
         peak batched.Server.s_aborts naive.Server.s_aborts)
      ~paper:true ~measured:batching_holds
  else
    Fmt.pr
      "    only %d core(s) available: the hot stripe cannot produce \
       combining pressure here;@.    skipping the batching check (see \
       EXPERIMENTS.md, P12)@."
      cores

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
   profile.  The trajectory goes to BENCH_loadcurve.json
   ([TM_BENCH_LOADCURVE_OUT] overrides the path). *)

let p13_loadcurve () =
  let module Stm = Tm_stm.Stm in
  let module Workload = Tm_serve.Workload in
  let module Server = Tm_serve.Server in
  let module Lc = Tm_serve.Loadcurve in
  let module Lrec = Tm_telemetry.Latency_recorder in
  section "P13" "open-loop loadcurve: determinism, coordinated omission, knee";
  let cores = Domain.recommended_domain_count () in
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
        Server.with_chaos_session ~latency:true plan ccfg (fun ses ->
            let r = Option.get (Server.session_latency ses) in
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
  if measured_ran then
    check
      (Fmt.str
         "global-lock knee (%.0f) does not exceed tl2 knee (%.0f) on the \
          conflict-heavy profile"
         knee_gl knee_tl2)
      ~paper:true ~measured:knee_holds
  else
    Fmt.pr
      "    only %d core(s) available: the measured knee would gauge the OS \
       scheduler;@.    skipping the knee check (see EXPERIMENTS.md, P13)@."
      cores;
  let out =
    Option.value ~default:"BENCH_loadcurve.json"
      (Sys.getenv_opt "TM_BENCH_LOADCURVE_OUT")
  in
  let oc = open_out out in
  let ints l = String.concat "," (List.map string_of_int l) in
  let json =
    Fmt.str
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
      knee_gl knee_tl2 knee_holds
  in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "    trajectory written to %s@." out

(* ------------------------------------------------------------------ *)

(* Every section of the harness, in run order, keyed for the
   [TM_BENCH_SECTIONS] filter: a comma-separated list of keys runs just
   those sections (e.g. TM_BENCH_SECTIONS=p9 in the CI bench job);
   unset or empty runs everything. *)
let bench_sections : (string * (unit -> unit)) list =
  [
    ("f1", f1);
    ("f2", f2);
    ("f3f4f8", f3_f4_f8);
    ("f5f14", liveness_figures);
    ("f15", f15);
    ("f16", f16);
    ("t1", t1);
    ("t2", t2);
    ("t3", t3);
    ("z1", z1);
    ("z2", z2);
    ("mv", mv);
    ("fw", fw);
    ("fw2", fw2);
    ("fw3", fw3);
    ("oq", oq);
    ("p2a", ablation);
    ("p2c", scheduler_ablation);
    ("p2d", abort_rate_ablation);
    ("p2b", real_stm);
    ("p3", p3_scaling);
    ("p4", p4_parallel_sweep);
    ("p5", p5_trace_overhead);
    ("p6", p6_analysis);
    ("p7", p7_chaos_overhead);
    ("p8", p8_telemetry_overhead);
    ("p9", p9_zoo_separation);
    ("p10", p10_blame_overhead);
    ("p11", p11_static_analysis);
    ("p12", p12_serve);
    ("p13", p13_loadcurve);
    ("bechamel", bechamel_benches);
  ]

let () =
  Fmt.pr
    "Reproduction harness: On the Liveness of Transactional Memory (PODC \
     2012)@.";
  let enabled =
    match Sys.getenv_opt "TM_BENCH_SECTIONS" with
    | None | Some "" -> None
    | Some s ->
        let keys =
          String.split_on_char ',' s
          |> List.map String.trim
          |> List.filter (fun k -> k <> "")
        in
        List.iter
          (fun k ->
            if not (List.mem_assoc k bench_sections) then begin
              Fmt.epr "unknown bench section %S (try: %s)@." k
                (String.concat ", " (List.map fst bench_sections));
              exit 2
            end)
          keys;
        Some keys
  in
  (match enabled with
  | None -> ()
  | Some keys -> Fmt.pr "(sections filtered: %s)@." (String.concat ", " keys));
  List.iter
    (fun (key, run) ->
      match enabled with
      | None -> run ()
      | Some keys -> if List.mem key keys then run ())
    bench_sections;
  Fmt.pr "@.=== SUMMARY ===@.";
  if !failures = 0 then Fmt.pr "all paper-vs-measured checks passed@."
  else Fmt.pr "%d MISMATCHES@." !failures;
  exit (if !failures = 0 then 0 else 1)
