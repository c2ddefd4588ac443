(* Tests for process classification (Figure 2) and TM-liveness properties
   (Section 3).  Figure ground truths:
     fig5  -> local, global, solo; respects nonblocking and biprogressing
     fig6  -> global, not local; fails the biprogressing respect-check
     fig7  -> solo (p1 crashed, p2 parasitic, p3 alone and progressing)
     fig9  -> violates everything (p2 correct, alone, starving)
     fig10 -> global, not local (p1 correct starving, p2 progressing)
     fig12 -> violates everything (p1 parasitic, p2 correct alone starving)
     fig14 -> fails the nonblocking respect-check *)

open Tm_history
open Tm_liveness

(* ------------------------------------------------------------------ *)
(* Classification of the figures. *)

let test_fig5_classes () =
  let l = Figures.fig5 in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Fmt.str "p%d correct" p)
        true
        (Process_class.is_correct l p);
      Alcotest.(check bool)
        (Fmt.str "p%d progresses" p)
        true
        (Process_class.makes_progress l p))
    [ 1; 2 ]

let test_fig6_classes () =
  let l = Figures.fig6 in
  Alcotest.(check bool) "p1 correct" true (Process_class.is_correct l 1);
  Alcotest.(check bool) "p2 correct" true (Process_class.is_correct l 2);
  Alcotest.(check bool) "p1 progresses" true (Process_class.makes_progress l 1);
  Alcotest.(check bool) "p2 starving" true (Process_class.is_starving l 2);
  Alcotest.(check bool) "p2 pending" true (Process_class.is_pending l 2);
  Alcotest.(check bool) "p2 not parasitic" false (Process_class.is_parasitic l 2)

let test_fig7_classes () =
  let l = Figures.fig7 in
  Alcotest.(check bool) "p1 crashes" true (Process_class.crashes l 1);
  Alcotest.(check bool) "p1 faulty" true (Process_class.is_faulty l 1);
  Alcotest.(check bool) "p2 parasitic" true (Process_class.is_parasitic l 2);
  Alcotest.(check bool) "p2 faulty" true (Process_class.is_faulty l 2);
  Alcotest.(check bool) "p3 correct" true (Process_class.is_correct l 3);
  Alcotest.(check bool) "p3 runs alone" true (Process_class.runs_alone l 3);
  Alcotest.(check bool) "p3 progresses" true (Process_class.makes_progress l 3);
  Alcotest.(check bool) "p1 does not run alone" false
    (Process_class.runs_alone l 1)

let test_fig9_classes () =
  let l = Figures.fig9 in
  Alcotest.(check bool) "p1 crashes" true (Process_class.crashes l 1);
  Alcotest.(check bool) "p2 correct" true (Process_class.is_correct l 2);
  Alcotest.(check bool) "p2 starving" true (Process_class.is_starving l 2);
  Alcotest.(check bool) "p2 runs alone" true (Process_class.runs_alone l 2)

let test_fig12_classes () =
  let l = Figures.fig12 in
  Alcotest.(check bool) "p1 parasitic" true (Process_class.is_parasitic l 1);
  Alcotest.(check bool) "p1 pending" true (Process_class.is_pending l 1);
  Alcotest.(check bool) "p1 not starving (parasitic)" false
    (Process_class.is_starving l 1);
  Alcotest.(check bool) "p2 starving" true (Process_class.is_starving l 2)

let test_classify_table () =
  let table = Process_class.classify Figures.fig7 in
  Alcotest.(check int) "three rows" 3 (List.length table);
  let row p = List.find (fun s -> s.Process_class.proc = p) table in
  Alcotest.(check bool) "p1 crashed" true (row 1).Process_class.crashed;
  Alcotest.(check bool) "p2 parasitic" true (row 2).Process_class.parasitic;
  Alcotest.(check bool) "p3 progresses" true (row 3).Process_class.progresses;
  let s = Fmt.str "%a" Process_class.pp_table table in
  Alcotest.(check bool) "renders" true (String.length s > 0)

(* ------------------------------------------------------------------ *)
(* Property verdicts per figure (the paper's claims). *)

let check_verdict name l ~local ~global ~solo ~nb ~bi =
  let v = Property.verdict l in
  Alcotest.(check bool) (name ^ " local") local v.Property.local;
  Alcotest.(check bool) (name ^ " global") global v.Property.global;
  Alcotest.(check bool) (name ^ " solo") solo v.Property.solo;
  Alcotest.(check bool) (name ^ " nonblocking-respect") nb v.Property.nonblocking_ok;
  Alcotest.(check bool) (name ^ " biprogressing-respect") bi
    v.Property.biprogressing_ok

let test_fig5_verdict () =
  check_verdict "fig5" Figures.fig5 ~local:true ~global:true ~solo:true
    ~nb:true ~bi:true

let test_fig6_verdict () =
  check_verdict "fig6" Figures.fig6 ~local:false ~global:true ~solo:true
    ~nb:true ~bi:false

let test_fig7_verdict () =
  check_verdict "fig7" Figures.fig7 ~local:true ~global:true ~solo:true
    ~nb:true ~bi:true

let test_fig9_verdict () =
  check_verdict "fig9" Figures.fig9 ~local:false ~global:false ~solo:false
    ~nb:false ~bi:true

let test_fig10_verdict () =
  check_verdict "fig10" Figures.fig10 ~local:false ~global:true ~solo:true
    ~nb:true ~bi:false

let test_fig12_verdict () =
  check_verdict "fig12" Figures.fig12 ~local:false ~global:false ~solo:false
    ~nb:false ~bi:true

let test_fig14_verdict () =
  check_verdict "fig14" Figures.fig14 ~local:false ~global:false ~solo:false
    ~nb:false ~bi:true

(* fig7 ensures local progress?  Its only correct process (p3) progresses,
   so yes: local quantifies over correct processes only.  The paper uses
   fig7 to illustrate solo progress; local holding too is consistent
   (L_local ⊆ L_solo). *)

(* ------------------------------------------------------------------ *)
(* Property lattice and meta-classification on the figure corpus. *)

let corpus = List.map snd Figures.all_lassos

let find_property name = List.find (fun p -> p.Property.name = name) Property.all

let test_lattice () =
  let local = find_property "local-progress" in
  let global = find_property "global-progress" in
  let solo = find_property "solo-progress" in
  Alcotest.(check bool) "local stronger than global" true
    (Property.stronger_on local global corpus);
  Alcotest.(check bool) "global stronger than solo" true
    (Property.stronger_on global solo corpus);
  Alcotest.(check bool) "local stronger than solo" true
    (Property.stronger_on local solo corpus);
  (* Strictness witnesses. *)
  Alcotest.(check bool) "fig6 separates local from global" true
    (global.Property.holds Figures.fig6
    && not (local.Property.holds Figures.fig6))

let test_meta_classification () =
  let local = find_property "local-progress" in
  let global = find_property "global-progress" in
  let solo = find_property "solo-progress" in
  Alcotest.(check bool) "local nonblocking" true
    (Property.nonblocking_on local corpus);
  Alcotest.(check bool) "solo nonblocking" true
    (Property.nonblocking_on solo corpus);
  Alcotest.(check bool) "global nonblocking" true
    (Property.nonblocking_on global corpus);
  Alcotest.(check bool) "local biprogressing" true
    (Property.biprogressing_on local corpus);
  Alcotest.(check bool) "global not biprogressing (fig6)" false
    (Property.biprogressing_on global corpus);
  Alcotest.(check bool) "solo not biprogressing (fig6)" false
    (Property.biprogressing_on solo corpus)

(* ------------------------------------------------------------------ *)
(* The future-work families: k-progress and priority progress. *)

let test_k_progress_lattice () =
  let k1 = Property.k_progress 1 in
  let k2 = Property.k_progress 2 in
  let k3 = Property.k_progress 3 in
  let local = find_property "local-progress" in
  Alcotest.(check bool) "3-progress stronger than 2-progress" true
    (Property.stronger_on k3 k2 corpus);
  Alcotest.(check bool) "2-progress stronger than 1-progress" true
    (Property.stronger_on k2 k1 corpus);
  Alcotest.(check bool) "local stronger than any k-progress" true
    (Property.stronger_on local k3 corpus);
  (* 1-progress coincides with global progress pointwise. *)
  List.iter
    (fun l ->
      Alcotest.(check bool) "1-progress = global" (Property.global_progress l)
        (k1.Property.holds l))
    corpus;
  (* On histories with at most 3 processes, 3-progress = local. *)
  List.iter
    (fun l ->
      Alcotest.(check bool) "3-progress = local on <=3 procs"
        (Property.local_progress l) (k3.Property.holds l))
    corpus

let test_k_progress_verdicts () =
  let k2 = Property.k_progress 2 in
  Alcotest.(check bool) "fig5 satisfies 2-progress" true
    (k2.Property.holds Figures.fig5);
  Alcotest.(check bool) "fig6 violates 2-progress" false
    (k2.Property.holds Figures.fig6);
  Alcotest.(check bool) "fig7 satisfies 2-progress (one correct process)"
    true
    (k2.Property.holds Figures.fig7)

let test_k_progress_meta () =
  let k2 = Property.k_progress 2 in
  (* k >= 2: nonblocking and biprogressing — hence covered by Theorem 2. *)
  Alcotest.(check bool) "2-progress nonblocking" true
    (Property.nonblocking_on k2 corpus);
  Alcotest.(check bool) "2-progress biprogressing" true
    (Property.biprogressing_on k2 corpus)

let test_priority_progress () =
  (* fig6: p1 commits forever, p2 starves; both correct. *)
  Alcotest.(check bool) "fig6 with p1 prioritized" true
    (Property.priority_progress ~priority:(fun p -> -p) Figures.fig6);
  Alcotest.(check bool) "fig6 with p2 prioritized" false
    (Property.priority_progress ~priority:(fun p -> p) Figures.fig6);
  (* Constant priorities degenerate to local progress. *)
  List.iter
    (fun l ->
      Alcotest.(check bool) "constant priority = local"
        (Property.local_progress l)
        (Property.priority_progress ~priority:(fun _ -> 0) l))
    corpus

(* ------------------------------------------------------------------ *)
(* Empirical bridge: lasso detection and window classification. *)

let test_find_lasso_on_unrolled_figures () =
  List.iter
    (fun (name, l) ->
      let h = Lasso.unroll l 5 in
      match Empirical.find_lasso h with
      | None -> Alcotest.failf "%s: no lasso detected in unrolling" name
      | Some detected ->
          Alcotest.(check bool)
            (name ^ ": detected lasso has the same verdict")
            true
            (Property.verdict detected = Property.verdict l))
    Figures.all_lassos

let test_find_lasso_on_deterministic_run () =
  (* Round-robin lockstep of two toggle processes (read v, write 1-v: the
     workload of Figures 5 and 6) on one t-variable under fgp: the run is
     exactly periodic with p1 winning every round.  The detector must find
     the lasso and the exact deciders must answer: global but not local
     progress — the run realizes Figure 6. *)
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
  in
  let entry = Option.get (Tm_impl.Registry.find "fgp") in
  let spec =
    Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps:400 ~seed:1
      ~sched:Tm_sim.Runner.Round_robin ~workload:toggle ()
  in
  let o = Tm_sim.Runner.run entry spec in
  match Empirical.find_lasso o.Tm_sim.Runner.history with
  | None -> Alcotest.fail "expected a periodic suffix"
  | Some l ->
      Alcotest.(check bool) "global progress" true (Property.global_progress l);
      Alcotest.(check bool) "not local progress" false
        (Property.local_progress l);
      Alcotest.(check bool) "p1 progresses" true
        (Process_class.makes_progress l 1);
      Alcotest.(check bool) "p2 starving" true (Process_class.is_starving l 2)

let test_find_lasso_none_on_empty () =
  Alcotest.(check bool) "empty history has no lasso" true
    (Empirical.find_lasso History.empty = None)

let test_window_classification () =
  (* The quiescent strawman under Algorithm 2 produces the Figure-12
     shape; the window classifier must flag p1 as parasitic-looking and
     p2 as pending. *)
  let quiescent = Option.get (Tm_impl.Registry.find "quiescent") in
  let r =
    Tm_adversary.Adversary.run ~patience:40 ~rounds:3 quiescent
      Tm_adversary.Adversary.Algorithm_2
  in
  let table =
    Empirical.classify_window ~window:60 r.Tm_adversary.Adversary.history
  in
  let row p = List.find (fun s -> s.Empirical.proc = p) table in
  Alcotest.(check bool) "p1 looks parasitic" true
    (row 1).Empirical.looks_parasitic;
  Alcotest.(check bool) "p1 pending" true (row 1).Empirical.looks_pending;
  Alcotest.(check bool) "p2 pending" true (row 2).Empirical.looks_pending;
  Alcotest.(check bool) "p2 not parasitic (aborted in window)" false
    (row 2).Empirical.looks_parasitic;
  let rendered =
    Fmt.str "%a" Fmt.(list ~sep:(any "; ") Empirical.pp_window_summary) table
  in
  Alcotest.(check bool) "renders" true (String.length rendered > 0)

(* ------------------------------------------------------------------ *)
(* Generated lassos: Figure 2's inclusion arrows as properties. *)

(* Generate a well-formed lasso: the cycle is made of completed
   operation pairs, so the pending state is empty at every cycle
   boundary; stem processes with a pending invocation are excluded from
   the cycle. *)
let gen_lasso =
  QCheck2.Gen.(
    let pair_for p =
      oneof
        [
          map (fun x -> History.read p x 0) (int_bound 2);
          map (fun x -> History.read_aborted p x) (int_bound 2);
          map2 (fun x v -> History.write p x v) (int_bound 2) (int_bound 3);
          return (History.commit p);
          return (History.abort p);
        ]
    in
    let* nprocs = int_range 1 4 in
    let procs = List.init nprocs (fun i -> i + 1) in
    (* Which processes appear in the cycle?  At least one must (the cycle
       is non-empty by definition). *)
    let* cycle_procs =
      List.fold_left
        (fun acc p ->
          let* acc = acc in
          let* keep = bool in
          return (if keep then p :: acc else acc))
        (return []) procs
    in
    let cycle_procs = if cycle_procs = [] then [ 1 ] else cycle_procs in
    let* cycle_pairs =
      match cycle_procs with
      | [] -> return []
      | ps ->
          let* n = int_range 1 6 in
          flatten_l
            (List.init n (fun _ ->
                 let* p = oneofl ps in
                 pair_for p))
    in
    let* stem_pairs =
      let* n = int_range 0 4 in
      flatten_l
        (List.init n (fun _ ->
             let* p = oneofl procs in
             pair_for p))
    in
    (* Optionally leave a dangling invocation for a non-cycle process
       (a crash in mid-operation). *)
    let* dangling =
      let outside = List.filter (fun p -> not (List.mem p cycle_procs)) procs in
      match outside with
      | [] -> return []
      | ps ->
          let* add = bool in
          if not add then return []
          else
            let* p = oneofl ps in
            return [ [ Event.Inv (p, Event.Read 0) ] ]
    in
    let stem = List.concat (stem_pairs @ dangling) in
    let cycle = List.concat cycle_pairs in
    match Lasso.check ~stem ~cycle with
    | Ok l -> return l
    | Error m -> failwith ("generator produced bad lasso: " ^ m))

let prop_taxonomy_inclusions =
  QCheck2.Test.make ~count:500
    ~name:"Figure 2 class inclusions hold on generated lassos" gen_lasso
    (fun l ->
      List.for_all
        (fun p ->
          let imp a b = (not a) || b in
          let open Process_class in
          imp (crashes l p) (is_pending l p)
          && imp (crashes l p) (is_faulty l p)
          && imp (is_parasitic l p) (is_pending l p)
          && imp (is_parasitic l p) (is_faulty l p)
          && imp (is_starving l p) (is_pending l p)
          && imp (is_starving l p) (is_correct l p)
          && imp (not (is_pending l p)) (is_correct l p)
          && imp (not (is_pending l p)) (not (crashes l p))
          && imp (is_correct l p) (not (crashes l p))
          && (not (crashes l p && is_parasitic l p))
          && is_correct l p <> is_faulty l p)
        (Lasso.procs l))

let prop_property_chain =
  QCheck2.Test.make ~count:500
    ~name:"local => global => solo on generated lassos" gen_lasso (fun l ->
      let imp a b = (not a) || b in
      imp (Property.local_progress l) (Property.global_progress l)
      && imp (Property.global_progress l) (Property.solo_progress l))

let prop_progress_requires_infinite_commits =
  QCheck2.Test.make ~count:500
    ~name:"progressing processes commit infinitely often" gen_lasso (fun l ->
      List.for_all
        (fun p ->
          (not (Process_class.makes_progress l p))
          || Lasso.infinitely_many l Event.is_commit p)
        (Lasso.procs l))

let prop_library_generator_lassos =
  (* The library's own Generator.lasso: always well-formed (construction
     validates), taxonomy inclusions hold, and verdicts are
     rotation-stable. *)
  QCheck2.Test.make ~count:300 ~name:"library lasso generator"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let l = Tm_history.Generator.lasso seed in
      List.for_all
        (fun p ->
          let imp a b = (not a) || b in
          let open Process_class in
          imp (crashes l p) (is_pending l p)
          && imp (is_parasitic l p) (is_faulty l p)
          && imp (is_starving l p) (is_correct l p)
          && is_correct l p <> is_faulty l p)
        (Lasso.procs l)
      && Property.verdict l = Property.verdict (Lasso.rotate l))

let prop_verdict_stable_under_rotation =
  QCheck2.Test.make ~count:300
    ~name:"liveness verdicts invariant under lasso rotation" gen_lasso
    (fun l ->
      let r = Lasso.rotate l in
      let u = Lasso.unroll_cycle_into_stem l in
      Property.verdict l = Property.verdict r
      && Property.verdict l = Property.verdict u)

(* [Empirical.classify_window] as it was written before it became one
   pass: per process, a filter over the window's events for each count. *)
let classify_window_by_filters ~window h =
  let es = History.events h in
  let n = List.length es in
  let tail = List.filteri (fun i _ -> i >= n - window) es in
  let count_in l pred p =
    List.length (List.filter (fun e -> Event.proc e = p && pred e) l)
  in
  List.map
    (fun p ->
      let events_total = History.event_count h p in
      let events_in_window = count_in tail (fun _ -> true) p in
      let commits_in_window = count_in tail Event.is_commit p in
      let aborts_in_window = count_in tail Event.is_abort p in
      let trycs_in_window = count_in tail Event.is_try_commit p in
      let looks_pending = commits_in_window = 0 in
      let looks_crashed = events_total > 0 && events_in_window = 0 in
      let looks_parasitic =
        events_in_window > 0 && trycs_in_window = 0 && aborts_in_window = 0
      in
      {
        Empirical.proc = p;
        events_total;
        events_in_window;
        commits_in_window;
        aborts_in_window;
        trycs_in_window;
        looks_pending;
        looks_crashed;
        looks_parasitic;
        looks_progressing =
          (not looks_pending) && (not looks_crashed) && not looks_parasitic;
      })
    (History.procs h)

(* Well-formed draws, and arbitrary event sequences over processes -1..4
   (the classifier does not need well-formedness), with windows from
   below zero to past the end. *)
let gen_window_case =
  QCheck2.Gen.(
    let raw_event =
      let* p = int_range (-1) 4 in
      oneofl
        [
          Event.Inv (p, Event.Read 0);
          Event.Inv (p, Event.Write (1, 2));
          Event.Inv (p, Event.Try_commit);
          Event.Res (p, Event.Value 0);
          Event.Res (p, Event.Ok_written);
          Event.Res (p, Event.Committed);
          Event.Res (p, Event.Aborted);
        ]
    in
    let* h =
      oneof
        [
          map2
            (fun nprocs (steps, seed) ->
              Tm_history.Generator.well_formed
                ~config:{ Tm_history.Generator.default with nprocs }
                ~steps seed)
            (int_range 1 5)
            (pair (int_bound 80) (int_bound 100_000));
          map History.of_events (list_size (int_bound 60) raw_event);
        ]
    in
    let* window = int_range (-2) (History.length h + 3) in
    return (window, h))

let prop_classify_window_one_pass =
  QCheck2.Test.make ~count:500
    ~name:"one-pass classify_window = per-process filters" gen_window_case
    (fun (window, h) ->
      Empirical.classify_window ~window h
      = classify_window_by_filters ~window h)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_classify_window_one_pass;
      prop_taxonomy_inclusions;
      prop_library_generator_lassos;
      prop_property_chain;
      prop_progress_requires_infinite_commits;
      prop_verdict_stable_under_rotation;
    ]

let () =
  Alcotest.run "tm_liveness"
    [
      ( "classification",
        [
          Alcotest.test_case "fig5" `Quick test_fig5_classes;
          Alcotest.test_case "fig6" `Quick test_fig6_classes;
          Alcotest.test_case "fig7" `Quick test_fig7_classes;
          Alcotest.test_case "fig9" `Quick test_fig9_classes;
          Alcotest.test_case "fig12" `Quick test_fig12_classes;
          Alcotest.test_case "summary table" `Quick test_classify_table;
        ] );
      ( "figure verdicts",
        [
          Alcotest.test_case "fig5" `Quick test_fig5_verdict;
          Alcotest.test_case "fig6" `Quick test_fig6_verdict;
          Alcotest.test_case "fig7" `Quick test_fig7_verdict;
          Alcotest.test_case "fig9" `Quick test_fig9_verdict;
          Alcotest.test_case "fig10" `Quick test_fig10_verdict;
          Alcotest.test_case "fig12" `Quick test_fig12_verdict;
          Alcotest.test_case "fig14" `Quick test_fig14_verdict;
        ] );
      ( "property lattice",
        [
          Alcotest.test_case "strength chain" `Quick test_lattice;
          Alcotest.test_case "nonblocking/biprogressing" `Quick
            test_meta_classification;
        ] );
      ( "future-work properties",
        [
          Alcotest.test_case "k-progress lattice" `Quick
            test_k_progress_lattice;
          Alcotest.test_case "k-progress verdicts" `Quick
            test_k_progress_verdicts;
          Alcotest.test_case "k-progress meta" `Quick test_k_progress_meta;
          Alcotest.test_case "priority progress" `Quick
            test_priority_progress;
        ] );
      ( "empirical bridge",
        [
          Alcotest.test_case "lassos from unrolled figures" `Quick
            test_find_lasso_on_unrolled_figures;
          Alcotest.test_case "lasso from a deterministic run" `Quick
            test_find_lasso_on_deterministic_run;
          Alcotest.test_case "no lasso in empty history" `Quick
            test_find_lasso_none_on_empty;
          Alcotest.test_case "window classification" `Quick
            test_window_classification;
        ] );
      ("properties", properties);
    ]
