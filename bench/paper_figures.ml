(* The paper's figures: F1-F16 (EXPERIMENTS.md).  Each check is a
   deterministic verdict, pinned byte for byte by the paper-verdict
   fixture. *)

open Tm_history
open Harness
module Property = Tm_liveness.Property
module Pc = Tm_liveness.Process_class

let opaque = Tm_safety.Opacity.is_opaque
let strictly_serializable = Tm_safety.Serializability.is_strictly_serializable

(* ------------------------------------------------------------------ *)
(* F1: Figure 1 — the scenario is opaque and realizable; repeated forever
   it starves p1. *)

let f1 () =
  section "F1" "Figure 1: the local-progress dilemma scenario";
  check "fig1 is opaque" ~paper:true ~measured:(opaque Figures.fig1);
  check "fig1 is strictly serializable" ~paper:true
    ~measured:(strictly_serializable Figures.fig1);
  (* Realizability: the adversary's first round against Fgp reproduces
     Figure 1 exactly. *)
  let r = Adv.run ~rounds:1 (tm "fgp") Adv.Algorithm_1 in
  let prefix n h =
    History.of_events (List.filteri (fun i _ -> i < n) (History.events h))
  in
  check "adversary round 1 vs fgp = fig1" ~paper:true
    ~measured:
      (History.equal
         (prefix (History.length Figures.fig1) r.Adv.history)
         Figures.fig1)

(* ------------------------------------------------------------------ *)
(* F2: Figure 2 — the process-class inclusion diagram, checked on every
   lasso figure and its rotations/unrollings. *)

let f2 () =
  section "F2" "Figure 2: process-class taxonomy inclusions";
  let variants l =
    [ l; Lasso.rotate l; Lasso.rotate (Lasso.rotate l);
      Lasso.unroll_cycle_into_stem l ]
  in
  let lassos = List.concat_map (fun (_, l) -> variants l) Figures.all_lassos in
  let ok =
    List.for_all
      (fun l ->
        List.for_all
          (fun p ->
            let imp a b = (not a) || b in
            let open Pc in
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
  check "fig3 opaque" ~paper:false ~measured:(opaque Figures.fig3);
  check "fig3 strictly serializable" ~paper:false
    ~measured:(strictly_serializable Figures.fig3);
  check "fig4 opaque" ~paper:false ~measured:(opaque Figures.fig4);
  check "fig4 strictly serializable" ~paper:true
    ~measured:(strictly_serializable Figures.fig4);
  List.iter
    (fun v ->
      check
        (Fmt.str "fig8 (terminating adversary suffix, v=%d) opaque" v)
        ~paper:false
        ~measured:(opaque (Figures.fig8 ~v)))
    [ 0; 1; 5 ]

(* ------------------------------------------------------------------ *)
(* F5..F14: liveness verdicts of the infinite histories. *)

let liveness_figures () =
  section "F5-F14" "liveness verdicts of the infinite histories";
  let expect name l (local, global, solo, nb, bi) =
    let v = Property.verdict l in
    check (name ^ " local progress") ~paper:local ~measured:v.Property.local;
    check (name ^ " global progress") ~paper:global
      ~measured:v.Property.global;
    check (name ^ " solo progress") ~paper:solo ~measured:v.Property.solo;
    check (name ^ " respects nonblocking") ~paper:nb
      ~measured:v.Property.nonblocking_ok;
    check (name ^ " respects biprogressing") ~paper:bi
      ~measured:v.Property.biprogressing_ok
  in
  expect "fig5" Figures.fig5 (true, true, true, true, true);
  expect "fig6" Figures.fig6 (false, true, true, true, false);
  expect "fig7" Figures.fig7 (true, true, true, true, true);
  expect "fig9" Figures.fig9 (false, false, false, false, true);
  expect "fig10" Figures.fig10 (false, true, true, true, false);
  expect "fig12" Figures.fig12 (false, false, false, false, true);
  expect "fig13" Figures.fig13 (false, true, true, true, false);
  expect "fig14" Figures.fig14 (false, false, false, false, true);
  check "fig7: p1 crashes" ~paper:true ~measured:(Pc.crashes Figures.fig7 1);
  check "fig7: p2 parasitic" ~paper:true
    ~measured:(Pc.is_parasitic Figures.fig7 2);
  check "fig7: p3 runs alone and progresses" ~paper:true
    ~measured:
      (Pc.runs_alone Figures.fig7 3 && Pc.makes_progress Figures.fig7 3);
  check "fig12: p1 parasitic" ~paper:true
    ~measured:(Pc.is_parasitic Figures.fig12 1)

(* ------------------------------------------------------------------ *)
(* F15: the 10-state Fgp automaton. *)

let f15 () =
  section "F15" "Figure 15: Fgp with one process, one binary t-variable";
  let g = Tm_sim.Sweep.Exhaustive.fig15 () in
  assert g.complete;
  check_int "reachable states" ~paper:10 ~measured:(List.length g.states);
  Fmt.pr "  states:@.";
  List.iteri
    (fun i (s, _) -> Fmt.pr "    s%-2d %a@." (i + 1) Tm_impl.Fgp.pp_state s)
    g.states

(* ------------------------------------------------------------------ *)
(* F16: the example history Hex of Fgp, replayed. *)

let f16 () =
  section "F16" "Figure 16: the example history Hex of Fgp";
  let cfg = Tm_impl.Tm_intf.config ~nprocs:3 ~ntvars:2 () in
  let fgp = Tm_impl.Tm_intf.pack (module Tm_impl.Fgp) cfg in
  (* The figure, step by step: each response is Fgp's first poll's. *)
  let h = Tm_impl.Tm_intf.replay fgp ~patience:0 Figures.fig16 in
  check "replayed history equals Figure 16" ~paper:true
    ~measured:(History.equal h Figures.fig16);
  check "Hex is opaque" ~paper:true ~measured:(opaque h)
