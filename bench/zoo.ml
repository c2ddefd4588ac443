(* The zoo against the paper: the Section-3.2.3 solo-progress matrix
   (Z1), the global-lock TM (Z2), Figures 9/12 realized live (MV), the
   concluding remarks' future work and second circumvention (FW-FW3) and
   the open question (OQ).  Deterministic like the figures. *)

open Tm_history
open Harness
module Property = Tm_liveness.Property

(* Whether p2, running beside a p1 with [fate], keeps committing. *)
let solo ?(sched = Runner.Round_robin) entry fate =
  let spec =
    Runner.spec ~nprocs:2 ~ntvars:1 ~steps:4000 ~seed:1 ~sched
      ~fates:[ (1, fate) ]
      ()
  in
  (Runner.run entry spec).Runner.commits.(2) >= 10

(* The commit step a mid-commit crash lands on: past the lock phase for
   the commit-time lockers. *)
let mid_commit_depth = function
  | "tl2" | "ostm" | "norec" | "mvstm" -> 2
  | _ -> 0

(* The toggle workload of Figures 5/6: read the bit, write its
   complement. *)
let toggle =
  Tm_sim.Workload.fixed
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

(* The toggle workload for [steps] under round-robin lockstep: runs are
   deterministic and exactly periodic. *)
let lockstep entry ~steps =
  Runner.run entry
    (Runner.spec ~nprocs:2 ~ntvars:1 ~steps ~seed:1 ~sched:Runner.Round_robin
       ~workload:toggle ())

(* ------------------------------------------------------------------ *)
(* Z1: the Section-3.2.3 solo-progress matrix. *)

let z1 () =
  section "Z1" "Section 3.2.3: solo progress under faults";
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
      let entry = tm name in
      check (name ^ " healthy") ~paper:h
        ~measured:(solo ~sched:Runner.Uniform entry Runner.Healthy);
      check (name ^ " crash-after-write") ~paper:c
        ~measured:(solo entry (Runner.Crash_after_write 1));
      check (name ^ " crash-mid-commit") ~paper:m
        ~measured:
          (solo entry (Runner.Crash_mid_commit (mid_commit_depth name)));
      check (name ^ " parasite") ~paper:p
        ~measured:(solo entry (Runner.Parasitic_from 10)))
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
    Tm_sim.Workload.fixed [ [ Tm_sim.Workload.W_read 0; inc; inc; inc ] ]
  in
  List.iter
    (fun name ->
      let entry = tm name in
      let stalls = ref 0 in
      let runner_commits = ref [] in
      for seed = 1 to 40 do
        let crash_step = 20 + (seed * 17 mod 300) in
        let spec =
          Runner.spec ~nprocs:2 ~ntvars:1 ~steps:4000 ~seed
            ~sched:Runner.Round_robin ~workload:hot_workload
            ~fates:[ (1, Runner.Crash_at crash_step) ]
            ()
        in
        let o = Runner.run entry spec in
        runner_commits := o.Runner.commits.(2) :: !runner_commits;
        if o.Runner.commits.(2) < 10 then incr stalls
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
  let entry = tm "global-lock" in
  let spec =
    Runner.spec ~nprocs:4 ~ntvars:1 ~steps:4000 ~seed:2
      ~sched:Runner.Round_robin ()
  in
  let o = Runner.run entry spec in
  check "fault-free: zero aborts" ~paper:true
    ~measured:(Runner.abort_total o = 0);
  check "fault-free: every process commits (local progress)" ~paper:true
    ~measured:
      (List.for_all (fun p -> o.Runner.commits.(p) >= 10) [ 1; 2; 3; 4 ]);
  let spec_crash =
    Runner.spec ~nprocs:4 ~ntvars:1 ~steps:4000 ~seed:2
      ~sched:Runner.Round_robin
      ~fates:[ (1, Runner.Crash_after_write 1) ]
      ()
  in
  let oc = Runner.run entry spec_crash in
  check "one crash blocks every other process" ~paper:true
    ~measured:(List.length (Runner.blocked_procs oc) = 3)

(* ------------------------------------------------------------------ *)
(* FW: the concluding remarks' future-work families — k-progress and
   priority progress — evaluated on a live run via empirical lasso
   detection. *)

let fw () =
  section "FW" "concluding remarks: k-progress and priority progress";
  (* The toggle workload under fgp, round-robin lockstep: an exactly
     periodic run that realizes Figure 6 (p1 commits forever, p2 aborts
     forever). *)
  let o = lockstep (tm "fgp") ~steps:400 in
  let lasso = Tm_liveness.Empirical.find_lasso o.Runner.history in
  check "periodic suffix detected" ~paper:true ~measured:(lasso <> None);
  Option.iter
    (fun l ->
      check "run realizes Figure 6 (global, not local)" ~paper:true
        ~measured:
          (Property.global_progress l && not (Property.local_progress l));
      let k1 = Property.k_progress 1 in
      let k2 = Property.k_progress 2 in
      check "1-progress holds (= global progress)" ~paper:true
        ~measured:(k1.Property.holds l);
      check "2-progress fails (Theorem 2 families)" ~paper:false
        ~measured:(k2.Property.holds l);
      check "priority progress holds when the winner is prioritized"
        ~paper:true
        ~measured:(Property.priority_progress ~priority:(fun p -> -p) l);
      check "priority progress fails when the loser is prioritized"
        ~paper:false
        ~measured:(Property.priority_progress ~priority:(fun p -> p) l);
      (* The possibility side: fgp-priority is built to ensure priority
         progress (smaller id = higher priority).  Its round-robin
         lockstep run is exactly periodic; the detected lasso satisfies
         priority progress with the top process never aborted, while
         local progress fails — as Theorem 1 requires it must. *)
      let po = lockstep (tm "fgp-priority") ~steps:400 in
      let plasso = Tm_liveness.Empirical.find_lasso po.Runner.history in
      check "fgp-priority lockstep run is periodic" ~paper:true
        ~measured:(plasso <> None);
      Option.iter
        (fun pl ->
          check "fgp-priority ensures priority progress" ~paper:true
            ~measured:(Property.priority_progress ~priority:(fun p -> -p) pl);
          check "fgp-priority does not ensure local progress" ~paper:false
            ~measured:(Property.local_progress pl))
        plasso;
      check "fgp-priority never aborts the top process" ~paper:true
        ~measured:(po.Runner.aborts.(1) = 0))
    lasso

(* ------------------------------------------------------------------ *)
(* FW2: the second circumvention (§1.3): the TM controls the application
   and re-executes transaction bodies itself. *)

let fw2 () =
  section "FW2"
    "second circumvention: TM-controlled execution (Fetzer-style)";
  let entry = tm "fgp" in
  (* Step-level adversarial scheduling starves p2... *)
  let spec =
    Runner.spec ~nprocs:2 ~ntvars:1 ~steps:2400 ~seed:1
      ~sched:Runner.Round_robin ()
  in
  let o = Runner.run entry spec in
  check "step-level lockstep starves p2 under fgp" ~paper:true
    ~measured:(o.Runner.commits.(2) = 0);
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
  let quiescent = tm "quiescent" in
  (* Figure 9 shape: Algorithm 1, p1 "crashes" after one read, p2 is
     aborted forever. *)
  let r9 = Adv.run ~patience:100 ~rounds:10 quiescent Adv.Algorithm_1 in
  check "fig9 shape: p2 starves while p1 sleeps (quiescent)" ~paper:true
    ~measured:
      (r9.Adv.winner_starved
      && History.abort_count r9.Adv.history 2 >= 100
      && History.event_count r9.Adv.history 1 = 2);
  (* Figure 12 shape: Algorithm 2, p1 becomes parasitic. *)
  let r12 = Adv.run ~patience:40 ~rounds:3 quiescent Adv.Algorithm_2 in
  let h12 = r12.Adv.history in
  check "fig12 shape: p1 parasitic, p2 starves (quiescent)" ~paper:true
    ~measured:
      (r12.Adv.winner_starved
      && History.abort_count h12 1 = 0
      && History.try_commit_count h12 1 = 0
      && History.event_count h12 1 > 50
      && History.commit_count h12 2 = 0);
  (* Multiversion: a read-only process never aborts under write fire from
     the others (per-process workload override), while TL2 aborts the same
     reader constantly. *)
  let mvstm = tm "mvstm" in
  let spec =
    Runner.spec ~nprocs:3 ~ntvars:2 ~steps:3000 ~seed:4
      ~sched:Runner.Uniform
      ~workload:(Tm_sim.Workload.counter ~ntvars:2)
      ~workload_overrides:[ (1, Tm_sim.Workload.read_only ~ntvars:2 ~reads:3) ]
      ()
  in
  let o = Runner.run mvstm spec in
  check "mvstm: the read-only process never aborts under write fire"
    ~paper:true
    ~measured:(o.Runner.aborts.(1) = 0);
  let o_tl2 = Runner.run (tm "tl2") spec in
  check "tl2: the same reader aborts repeatedly" ~paper:true
    ~measured:(o_tl2.Runner.aborts.(1) > 20);
  (* ... and yet Theorem 1 still holds against it (checked in T1). *)
  let radv = Adv.run ~rounds:20 mvstm Adv.Algorithm_1 in
  check "mvstm: the adversary still starves p1" ~paper:true
    ~measured:(radv.Adv.victim_commits = 0 && radv.Adv.winner_commits >= 20)

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
  Fmt.pr "    %-18s %-10s %-8s %-8s %s@." "TM" "periodic" "local" "global"
    "commits p1/p2";
  let fgp_local = ref true in
  let any_local = ref false in
  List.iter
    (fun entry ->
      let o = lockstep entry ~steps:600 in
      let commits = Fmt.str "%d/%d" o.Runner.commits.(1) o.Runner.commits.(2) in
      match Tm_liveness.Empirical.find_lasso o.Runner.history with
      | None -> Fmt.pr "    %-18s %-10s %-8s %-8s %s@."
          entry.Reg.entry_name "no" "-" "-" commits
      | Some l ->
          let v = Property.verdict l in
          if entry.Reg.entry_name = "fgp" then fgp_local := v.Property.local;
          if v.Property.local then any_local := true;
          Fmt.pr "    %-18s %-10s %-8b %-8b %s@." entry.Reg.entry_name "yes"
            v.Property.local v.Property.global commits)
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
  (* The adversary's verdict on each TM's global progress: neither
     blocked nor starving the winner. *)
  let survivors =
    List.map
      (fun entry ->
        let adv = Adv.run ~rounds:20 entry Adv.Algorithm_1 in
        (entry, (not adv.Adv.blocked) && not adv.Adv.winner_starved))
      Reg.all
  in
  List.iter
    (fun (entry, survives) ->
      let name = entry.Reg.entry_name in
      (* local: the Theorem-1 adversary falsifies it for every TM (the
         victim is correct and starves), whatever the outcome mode. *)
      let local = "falsified (Thm 1)" in
      (* global: falsified when a scenario leaves every correct process
         without progress: a blocked or winner-starved adversary run, or
         the solo matrix's runner starving while the faulty process is
         crashed (hence not correct). *)
      let crash_ok =
        solo entry (Runner.Crash_after_write 1)
        && solo entry (Runner.Crash_mid_commit (mid_commit_depth name))
      in
      let para_ok = solo entry (Runner.Parasitic_from 10) in
      let global_falsified =
        (not survives) || not crash_ok
        (* a crashed p1 is faulty, so a starving p2 falsifies global *)
      in
      let global = if global_falsified then "falsified" else "not falsified" in
      let solo_verdict =
        if crash_ok && para_ok then "not falsified" else "falsified"
      in
      Fmt.pr "    %-18s %-22s %-22s %s@." name local global solo_verdict)
    survivors;
  (* The frontier the paper proves and the zoo realizes: local progress is
     impossible (every row), global progress is achievable (fgp, ostm
     survive everything we have), and in between the lock-based designs
     keep only conditional solo progress. *)
  let survives name =
    snd (List.find (fun (e, _) -> e.Reg.entry_name = name) survivors)
  in
  check "fgp's global progress survives the adversary" ~paper:true
    ~measured:(survives "fgp");
  check "ostm's global progress survives the adversary" ~paper:true
    ~measured:(survives "ostm")
