(* The paper's theorems: T1-T3 (EXPERIMENTS.md), deterministic like the
   figures. *)

open Harness

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
          let r = Adv.run ~rounds:30 entry alg in
          match Adv.verdict r with
          | Blocked ->
              (* Withholding responses is an escape open only to blocking
                 TMs. *)
              check
                (Fmt.str "%-16s blocks (allowed: blocking TM)"
                   entry.Reg.entry_name)
                ~paper:true
                ~measured:(not entry.Reg.responsive)
          | Winner_starved ->
              (* A TM without global progress starves even the winner —
                 the Figure 9/12 outcome, produced by the quiescent
                 strawman and by the priority Fgp (the suspended victim is
                 its top priority); their contract rows say so. *)
              check
                (Fmt.str "%-16s starves everyone (quiescent/priority)"
                   entry.Reg.entry_name)
                ~paper:true
                ~measured:
                  (Option.get (Tm_impl.Contract.find entry.Reg.entry_name))
                    .winner_starves
          | (Victim_committed | Victim_starves) as v ->
              check
                (Fmt.str "%-16s p1 never commits" entry.Reg.entry_name)
                ~paper:true
                ~measured:(v = Victim_starves && r.Adv.winner_commits >= 30))
        Reg.all)
    [ (Adv.Algorithm_1, "Algorithm 1"); (Adv.Algorithm_2, "Algorithm 2") ]

(* ------------------------------------------------------------------ *)
(* T2: Lemma 1 / Theorem 2 — the n-process generalization. *)

let t2 () =
  section "T2" "Lemma 1 / Theorem 2: n-process generalization";
  List.iter
    (fun n ->
      List.iter
        (fun tm_name ->
          let r = Adv.General.run ~rounds:15 ~nprocs:n (tm tm_name) in
          let victims_starve =
            (not r.Adv.General.any_victim_committed)
            && r.Adv.General.commits.(n) >= 15
          in
          check
            (Fmt.str "n=%d vs %-16s %d victims starve, winner commits" n
               tm_name (n - 1))
            ~paper:true ~measured:victims_starve)
        [ "fgp"; "tl2"; "ostm" ])
    [ 2; 3; 5; 8 ]

(* ------------------------------------------------------------------ *)
(* T3: Theorem 3 — Fgp ensures opacity and global progress. *)

let t3 () =
  section "T3" "Theorem 3: Fgp ensures opacity and global progress";
  let entry = tm "fgp" in
  (* (a) opacity under many random faulty schedules. *)
  let opaque_runs = ref 0 in
  let total_runs = 60 in
  for seed = 1 to total_runs do
    let fates =
      match seed mod 4 with
      | 0 -> []
      | 1 -> [ (1, Runner.Crash_at 30) ]
      | 2 -> [ (1, Runner.Parasitic_from 30) ]
      | _ -> [ (1, Runner.Crash_at 50); (2, Runner.Parasitic_from 20) ]
    in
    let spec =
      Runner.spec ~nprocs:3 ~ntvars:2 ~steps:200 ~seed ~sched:Runner.Uniform
        ~fates ()
    in
    let o = Runner.run entry spec in
    if Tm_safety.Opacity.is_opaque o.Runner.history then incr opaque_runs
  done;
  check_int "random faulty runs opaque (of 60)" ~paper:total_runs
    ~measured:!opaque_runs;
  (* (b) exhaustive opacity over every schedule up to a bounded depth, two
     processes, one binary t-variable — for Fgp and the rest of the
     responsive zoo. *)
  List.iter
    (fun (name, depth) ->
      let s = Tm_sim.Sweep.Exhaustive.screen (tm name) ~depth in
      Fmt.pr "  %-16s exhaustive depth-%d sweep: %6d histories@." name depth
        s.checked;
      check_int (Fmt.str "%s non-opaque histories" name) ~paper:0
        ~measured:(List.length s.non_opaque))
    [
      ("fgp", 9); ("tl2", 8); ("tinystm", 8); ("tinystm-ext", 8);
      ("swisstm", 8); ("dstm-aggressive", 8); ("ostm", 8); ("norec", 8);
      ("mvstm", 8); ("quiescent", 8); ("twopl", 8); ("fgp-priority", 8);
    ];
  (* (c) global progress: in long faulty runs, some correct process keeps
     committing. *)
  let spec =
    Runner.spec ~nprocs:4 ~ntvars:2 ~steps:6000 ~seed:3 ~sched:Runner.Uniform
      ~fates:[ (1, Runner.Crash_at 100); (2, Runner.Parasitic_from 100) ]
      ()
  in
  let o = Runner.run entry spec in
  check "some correct process commits unboundedly" ~paper:true
    ~measured:(o.Runner.commits.(3) + o.Runner.commits.(4) > 50)
