(* Differential conformance across the whole TM zoo: every registered TM
   runs under identical seeded schedules with crash/parasitic fates, and
   every produced history must be opaque — screened by the linear-time
   monitor, decided by the exact checker on the rare [No_witness].

   Also the sweep engine's parallel/sequential differential: the same
   configuration grid sharded over 4 domains must reproduce the
   single-domain results byte-for-byte. *)

open Tm_history
module Reg = Tm_impl.Registry

let fault_grid steps =
  [
    ("healthy", []);
    ("crash", [ (1, Tm_sim.Runner.Crash_after_write 1) ]);
    ("crash-mid-commit", [ (1, Tm_sim.Runner.Crash_mid_commit 1) ]);
    ("parasite", [ (1, Tm_sim.Runner.Parasitic_from (steps / 10)) ]);
    ( "mixed",
      [
        (1, Tm_sim.Runner.Crash_at (steps / 2));
        (2, Tm_sim.Runner.Parasitic_from (steps / 10));
      ] );
  ]

(* Small enough that the exact checker stays cheap on monitor fallbacks
   (multiversion histories), big enough to produce dozens of
   transactions. *)
let steps = 120

let check_opaque name h =
  Alcotest.(check bool)
    (name ^ " history well-formed")
    true
    (History.is_well_formed h);
  match Tm_safety.Monitor.run h with
  | Tm_safety.Monitor.Accepted -> ()
  | Tm_safety.Monitor.No_witness _ ->
      Alcotest.(check bool)
        (name ^ " opaque (exact checker)")
        true
        (Tm_safety.Opacity.is_opaque h)

let test_zoo_opacity_under_faults () =
  List.iter
    (fun entry ->
      List.iter
        (fun (pattern, fates) ->
          List.iter
            (fun seed ->
              let spec =
                Tm_sim.Runner.spec ~nprocs:3 ~ntvars:2 ~steps ~seed
                  ~sched:Tm_sim.Runner.Uniform ~fates ()
              in
              let o = Tm_sim.Runner.run entry spec in
              check_opaque
                (Fmt.str "%s/%s/seed=%d" entry.Reg.entry_name pattern seed)
                o.Tm_sim.Runner.history)
            [ 1; 2 ])
        (fault_grid steps))
    Reg.all

(* Same schedules, round-robin this time: deterministic lockstep is the
   adversarial corner the uniform scheduler misses. *)
let test_zoo_opacity_lockstep () =
  List.iter
    (fun entry ->
      let spec =
        Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps ~seed:1
          ~sched:Tm_sim.Runner.Round_robin ()
      in
      let o = Tm_sim.Runner.run entry spec in
      check_opaque (entry.Reg.entry_name ^ "/lockstep") o.Tm_sim.Runner.history)
    Reg.all

let parity_grid () =
  Tm_sim.Sweep.grid
    ~patterns:(Tm_sim.Sweep.fault_patterns ~nprocs:3 ~ntvars:2 ~steps:150 ())
    ~seeds:[ 1; 2; 3; 4 ]
    ()

(* Only a traced sweep keeps its runs' histories: both sides are traced,
   and a missing history on either side fails the comparison. *)
let test_sweep_parallel_equals_sequential () =
  let configs = parity_grid () in
  let seq = Tm_sim.Sweep.run ~trace:true configs in
  let par =
    Tm_sim.Pool.with_pool ~jobs:4 (fun pool ->
        Tm_sim.Sweep.run ~pool ~trace:true configs)
  in
  Alcotest.(check int) "same cardinality" (List.length seq) (List.length par);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Tm_sim.Sweep.label a.Tm_sim.Sweep.r_config ^ " history identical")
        true
        (match (a.Tm_sim.Sweep.r_traced, b.Tm_sim.Sweep.r_traced) with
        | Some a, Some b ->
            History.equal a.Tm_sim.Sweep.t_history b.Tm_sim.Sweep.t_history
        | _ -> false))
    seq par;
  Alcotest.(check string) "metrics JSON byte-for-byte identical"
    (Tm_sim.Sweep.to_json seq) (Tm_sim.Sweep.to_json par);
  Alcotest.(check string) "rendered table identical"
    (Fmt.str "%a" Tm_sim.Sweep.pp_table seq)
    (Fmt.str "%a" Tm_sim.Sweep.pp_table par)

(* Sweeping the sweep: every job count must agree with every other, and
   rerunning must agree with itself (no hidden global state). *)
let test_sweep_jobs_ladder () =
  let configs =
    Tm_sim.Sweep.grid
      ~tms:
        (List.filter_map Reg.find [ "tl2"; "fgp"; "ostm"; "mvstm"; "norec" ])
      ~patterns:(Tm_sim.Sweep.fault_patterns ~steps:100 ())
      ~seeds:[ 1; 2 ]
      ()
  in
  let reference = Tm_sim.Sweep.to_json (Tm_sim.Sweep.run configs) in
  List.iter
    (fun jobs ->
      let json =
        Tm_sim.Pool.with_pool ~jobs (fun pool ->
            Tm_sim.Sweep.to_json (Tm_sim.Sweep.run ~pool configs))
      in
      Alcotest.(check string)
        (Fmt.str "jobs=%d equals jobs=1" jobs)
        reference json)
    [ 2; 3; 4 ]

let () =
  Alcotest.run "tm_differential"
    [
      ( "zoo opacity",
        [
          Alcotest.test_case "all TMs, faulty seeded schedules" `Slow
            test_zoo_opacity_under_faults;
          Alcotest.test_case "all TMs, round-robin lockstep" `Quick
            test_zoo_opacity_lockstep;
        ] );
      ( "sweep determinism",
        [
          Alcotest.test_case "parallel equals sequential" `Slow
            test_sweep_parallel_equals_sequential;
          Alcotest.test_case "job-count ladder" `Slow test_sweep_jobs_ladder;
        ] );
    ]
