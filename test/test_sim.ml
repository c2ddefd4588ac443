(* Tests for the simulation substrate: PRNG, workloads, schedulers, fault
   injection edge cases, and the exhaustive schedule sweep. *)

open Tm_history
module Reg = Tm_impl.Registry

(* ------------------------------------------------------------------ *)
(* PRNG. *)

let test_prng_determinism () =
  let a = Tm_sim.Prng.create 42 and b = Tm_sim.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Tm_sim.Prng.next a)
      (Tm_sim.Prng.next b)
  done

let test_prng_bounds () =
  let g = Tm_sim.Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Tm_sim.Prng.int g 13 in
    if v < 0 || v >= 13 then Alcotest.failf "out of bounds: %d" v
  done

let test_prng_distribution () =
  (* Crude uniformity check: every residue of a small bound shows up. *)
  let g = Tm_sim.Prng.create 3 in
  let seen = Array.make 8 0 in
  for _ = 1 to 4_000 do
    let v = Tm_sim.Prng.int g 8 in
    seen.(v) <- seen.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Fmt.str "residue %d occurs plausibly" i) true
        (c > 300 && c < 700))
    seen

let test_prng_split_independent () =
  let g = Tm_sim.Prng.create 5 in
  let g1 = Tm_sim.Prng.split g in
  let g2 = Tm_sim.Prng.split g in
  (* Different splits yield different streams. *)
  let same = ref 0 in
  for _ = 1 to 50 do
    if Tm_sim.Prng.next g1 = Tm_sim.Prng.next g2 then incr same
  done;
  Alcotest.(check int) "streams diverge" 0 !same

let test_prng_copy () =
  let g = Tm_sim.Prng.create 9 in
  ignore (Tm_sim.Prng.next g);
  let c = Tm_sim.Prng.copy g in
  Alcotest.(check int64) "copy continues identically" (Tm_sim.Prng.next g)
    (Tm_sim.Prng.next c)

let test_prng_errors () =
  let g = Tm_sim.Prng.create 1 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Tm_sim.Prng.int g 0))

(* Golden streams, recorded before the generator state was unboxed: the
   representation may change, the streams may not. *)
let golden_next =
  [
    ( 0,
      [
        0xbfef8030ddc2d772L; 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L;
        0xf440fe3b62c79d2cL; 0x33ba2f29e7c168bbL; 0x98843f48a94b7866L;
        0x74ad4c24d41a25f8L; 0x2f9a1f13648eab6eL; 0x509a840d44beedbdL;
        0xe1d9d25350c18b44L; 0x83db02da19918686L; 0x889af42f2e548689L;
        0xec3add8a85bfa5eeL; 0x33ab0c5babe05527L; 0x27a774aeba5ef45bL;
        0x8bcb0ba992bb02deL;
      ] );
    ( 1,
      [
        0xd0bb866aae328182L; 0x6f6203387a582791L; 0x669bb27a971cd2e4L;
        0xd33756a89082caeaL; 0x9dba23001212fe2eL; 0xb88f26fcc93054abL;
        0x82f6bc57f6437cb2L; 0xc9f51660eb9fb926L; 0x41c438e608b4a9ecL;
        0xf34ac142b6c86cb2L; 0xe6e4f61a094ab8abL; 0xc3ba7601fe632dd0L;
        0x6360a3059ac0f4edL; 0xb4e5398b55d9ded7L; 0xac420b9f555848f4L;
        0x55af9a1259535dd9L;
      ] );
    ( 42,
      [
        0xcff0e851cb81f27bL; 0x7c96725217bec9d4L; 0xa495397d28f03731L;
        0xc384dc7cf8a7e182L; 0x6c1aa5220addd1bL; 0x81ca7a6721767c60L;
        0xbee4cef94bf8899aL; 0x1e668a6ebb5d23edL; 0xb3304446598c3e4L;
        0xeff0eb77dd7780afL; 0xba859a9a5a878a9bL; 0x39a88fe3fb040b81L;
        0x8fe504b7c138c310L; 0xca34f52a1aeaceb5L; 0x8212997f98510f7cL;
        0xee5f5265e134aa12L;
      ] );
    ( -7,
      [
        0xafc0620faa065d37L; 0xeaeba8459e081db7L; 0xff43d5042f2425a6L;
        0x211640710ed7233L; 0x52a31dce5d815132L; 0x4d7dd763bcac55a1L;
        0x466503c191df67a9L; 0x25745346af22f387L; 0xa4f46e56d246a606L;
        0x857beff86eca2a3dL; 0xcc74416dbc053e46L; 0xf53030ceb06431fdL;
        0x9e70d767a1aafe8aL; 0x2db68f22bfd6b0e7L; 0x7711bf3a943f5dd0L;
        0x968c602019b73a63L;
      ] );
  ]

let golden_int =
  [
    (1, [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ]);
    (7, [ 6; 6; 4; 0; 2; 4; 5; 0; 6; 4; 4; 3; 6; 5; 4; 2 ]);
    ( 1000,
      [
        566; 669; 972; 336; 414; 408; 830; 19; 105; 547; 678; 256; 996; 173;
        255; 156;
      ] );
  ]

let draws n f = List.init n (fun _ -> f ())

let test_prng_golden () =
  let module P = Tm_sim.Prng in
  List.iter
    (fun (seed, expected) ->
      let g = P.create seed in
      Alcotest.(check (list int64))
        (Fmt.str "seed %d: first 16 outputs" seed)
        expected
        (draws 16 (fun () -> P.next g)))
    golden_next;
  (* Reseeding one generator in place, from a drawn-from state, replays
     every golden stream. *)
  let g = P.create 1234 in
  ignore (P.next g);
  List.iter
    (fun (seed, expected) ->
      P.reseed g seed;
      Alcotest.(check (list int64))
        (Fmt.str "seed %d: reseeded in place" seed)
        expected
        (draws 16 (fun () -> P.next g)))
    golden_next;
  List.iter
    (fun (bound, expected) ->
      let g = P.create 42 in
      Alcotest.(check (list int))
        (Fmt.str "int at bound %d" bound)
        expected
        (draws 16 (fun () -> P.int g bound)))
    golden_int;
  let g = P.create 9 in
  Alcotest.(check (list bool)) "bool"
    [ true; false; true; false; false; false; true; true; false; true; false; false; true; true; true; true ]
    (draws 16 (fun () -> P.bool g));
  let g = P.create 5 in
  let s = P.split g in
  Alcotest.(check (list int64)) "split: the child stream"
    [
      0xc2920e3284da2f27L; 0x2077351f449561a5L; 0x26b48e19b9488449L;
      0xc28c2a205e8f7c66L; 0xada237a87bf1d65L; 0x764b871a032754d6L;
      0xfe543624d4be8ee6L; 0x9f8c4d63b2fc81c2L;
    ]
    (draws 8 (fun () -> P.next s));
  Alcotest.(check (list int64)) "split: the parent stream after it"
    [
      0x83af4cfbaea8aa91L; 0x36f940a065401aa7L; 0xb27807669d02d00dL;
      0x6a7d6987fddf8464L; 0xb990c39ffb1d3786L; 0x209c872d0d766044L;
      0xbeb023a06e7cabebL; 0x37d041e7e131beeeL;
    ]
    (draws 8 (fun () -> P.next g));
  (* A copy shares no state: drawing from it leaves the original where
     it was. *)
  let g = P.create 42 in
  let c = P.copy g in
  let from_copy = draws 6 (fun () -> P.next c) in
  Alcotest.(check int64) "the original is untouched by its copy"
    (List.hd (List.assoc 42 golden_next))
    (P.next g);
  Alcotest.(check (list int64)) "the copy replays the stream"
    (List.filteri (fun i _ -> i < 6) (List.assoc 42 golden_next))
    from_copy

(* ------------------------------------------------------------------ *)
(* Workloads. *)

(* The [latest] lookup of an attempt that read [reads] (latest first). *)
let latest_of reads x =
  match List.assoc_opt x reads with Some v -> v | None -> 0

let test_workload_counter () =
  let g = Tm_sim.Prng.create 0 in
  let w = Tm_sim.Workload.counter ~ntvars:3 in
  match w.Tm_sim.Workload.body g 0 with
  | [ Tm_sim.Workload.W_read x; Tm_sim.Workload.W_write (y, f) ] ->
      Alcotest.(check int) "same variable" x y;
      Alcotest.(check int)
        "increments the read value" 6
        (f (latest_of [ (x, 5) ]));
      Alcotest.(check int) "defaults to 0" 1 (f (latest_of []))
  | _ -> Alcotest.fail "unexpected counter body"

let test_workload_transfer () =
  let g = Tm_sim.Prng.create 0 in
  let w = Tm_sim.Workload.transfer ~ntvars:4 in
  match w.Tm_sim.Workload.body g 0 with
  | [
   Tm_sim.Workload.W_read a;
   Tm_sim.Workload.W_read b;
   Tm_sim.Workload.W_write (a', fa);
   Tm_sim.Workload.W_write (b', fb);
  ] ->
      Alcotest.(check bool) "distinct accounts" true (a <> b);
      let latest = latest_of [ (a, 10); (b, 3) ] in
      Alcotest.(check int) "debits source" 9 (fa latest);
      Alcotest.(check int) "credits target" 4 (fb latest);
      Alcotest.(check int) "source var" a a';
      Alcotest.(check int) "target var" b b'
  | _ -> Alcotest.fail "unexpected transfer body"

let test_workload_write_only () =
  let g = Tm_sim.Prng.create 0 in
  let w = Tm_sim.Workload.write_only ~ntvars:2 ~writes:3 in
  let body = w.Tm_sim.Workload.body g 7 in
  Alcotest.(check int) "three writes" 3 (List.length body);
  List.iter
    (function
      | Tm_sim.Workload.W_write (_, f) ->
          Alcotest.(check int) "writes the index" 8 (f (latest_of []))
      | Tm_sim.Workload.W_read _ -> Alcotest.fail "unexpected read")
    body

let test_workload_fixed_cycles () =
  let w =
    Tm_sim.Workload.fixed
      [ [ Tm_sim.Workload.W_read 0 ]; [ Tm_sim.Workload.W_read 1 ] ]
  in
  let g = Tm_sim.Prng.create 0 in
  let var i =
    match w.Tm_sim.Workload.body g i with
    | [ Tm_sim.Workload.W_read x ] -> x
    | _ -> Alcotest.fail "unexpected body"
  in
  Alcotest.(check (list int)) "cycles" [ 0; 1; 0; 1 ] [ var 0; var 1; var 2; var 3 ]

(* ------------------------------------------------------------------ *)
(* Runner edge cases. *)

let tl2 = Option.get (Reg.find "tl2")

let test_crash_at_zero () =
  let spec =
    Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps:500 ~seed:1
      ~fates:[ (1, Tm_sim.Runner.Crash_at 0) ]
      ()
  in
  let o = Tm_sim.Runner.run tl2 spec in
  Alcotest.(check int) "p1 never acts" 0
    (History.event_count o.Tm_sim.Runner.history 1);
  Alcotest.(check bool) "p2 commits" true (o.Tm_sim.Runner.commits.(2) > 0)

let test_all_crash () =
  let spec =
    Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps:500 ~seed:1
      ~fates:[ (1, Tm_sim.Runner.Crash_at 10); (2, Tm_sim.Runner.Crash_at 10) ]
      ()
  in
  let o = Tm_sim.Runner.run tl2 spec in
  Alcotest.(check bool) "run stops early" true (o.Tm_sim.Runner.steps_taken < 500)

let test_parasite_from_zero () =
  let spec =
    Tm_sim.Runner.spec ~nprocs:1 ~ntvars:1 ~steps:300 ~seed:1
      ~fates:[ (1, Tm_sim.Runner.Parasitic_from 0) ]
      ()
  in
  let o = Tm_sim.Runner.run tl2 spec in
  Alcotest.(check int) "never commits" 0 (Tm_sim.Runner.commit_total o);
  Alcotest.(check int) "never invokes tryC" 0
    (History.try_commit_count o.Tm_sim.Runner.history 1);
  Alcotest.(check bool) "keeps executing" true
    (History.event_count o.Tm_sim.Runner.history 1 > 100)

let test_quantum_scheduler () =
  let spec =
    Tm_sim.Runner.spec ~nprocs:2 ~ntvars:2 ~steps:1000 ~seed:1
      ~sched:(Tm_sim.Runner.Quantum 20) ()
  in
  let o = Tm_sim.Runner.run tl2 spec in
  Alcotest.(check bool) "both commit" true
    (o.Tm_sim.Runner.commits.(1) > 0 && o.Tm_sim.Runner.commits.(2) > 0);
  Alcotest.(check bool) "history well-formed" true
    (History.is_well_formed o.Tm_sim.Runner.history)

let test_outcome_accounting () =
  let spec = Tm_sim.Runner.spec ~nprocs:2 ~ntvars:2 ~steps:600 ~seed:3 () in
  let o = Tm_sim.Runner.run tl2 spec in
  (* Each step is an invocation, an answered poll, or a deferred poll. *)
  let responses =
    List.length
      (List.filter Event.is_response (History.events o.Tm_sim.Runner.history))
  in
  Alcotest.(check int) "steps add up"
    o.Tm_sim.Runner.steps_taken
    (Tm_sim.Runner.total o.Tm_sim.Runner.invocations
    + Tm_sim.Runner.total o.Tm_sim.Runner.defers
    + responses);
  (* Commit/abort counts match the history. *)
  List.iter
    (fun p ->
      Alcotest.(check int) "commits match history"
        (History.commit_count o.Tm_sim.Runner.history p)
        o.Tm_sim.Runner.commits.(p);
      Alcotest.(check int) "aborts match history"
        (History.abort_count o.Tm_sim.Runner.history p)
        o.Tm_sim.Runner.aborts.(p))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* The exhaustive sweep, cross-checked with the monitor and the exact
   checker. *)

let sweep_invocations = [ Event.Read 0; Event.Write (0, 1); Event.Try_commit ]

let test_sweep_counts () =
  (* Depth-0 sweep visits exactly the empty history. *)
  let n =
    Tm_sim.Sweep.Exhaustive.count_nodes tl2 ~nprocs:1 ~ntvars:1
      ~invocations:sweep_invocations ~depth:0
  in
  Alcotest.(check int) "only the root" 1 n;
  (* Depth 1 with one process: root + 3 invocations. *)
  let n1 =
    Tm_sim.Sweep.Exhaustive.count_nodes tl2 ~nprocs:1 ~ntvars:1
      ~invocations:sweep_invocations ~depth:1
  in
  Alcotest.(check int) "root + 3" 4 n1;
  Alcotest.(check int) "tl2, 2 processes, depth 10" 585_259
    (Tm_sim.Sweep.Exhaustive.count_nodes tl2 ~nprocs:2 ~ntvars:1
       ~invocations:sweep_invocations ~depth:10)

let sweep_tm_opaque name depth =
  let s = Tm_sim.Sweep.Exhaustive.screen (Option.get (Reg.find name)) ~depth in
  Alcotest.(check bool)
    (name ^ " visited many schedules")
    true (s.checked > 1000);
  Alcotest.(check int) (name ^ " non-opaque histories") 0
    (List.length s.non_opaque)

(* Copy-and-extend against replay.  The oracle is the model checker as it
   was before instances could be copied: every node is a fresh instance
   with the node's whole action list replayed on it. *)
module Exh = Tm_sim.Sweep.Exhaustive

let apply tm h = function
  | Exh.Invoke (p, inv) ->
      tm.Tm_impl.Tm_intf.invoke p inv;
      History.append h (Event.Inv (p, inv))
  | Exh.Poll p -> (
      match tm.Tm_impl.Tm_intf.poll p with
      | Some r -> History.append h (Event.Res (p, r))
      | None -> h)

let replay entry ~nprocs ~ntvars actions =
  let tm = Reg.instance entry (Tm_impl.Tm_intf.config ~nprocs ~ntvars ()) in
  (tm, List.fold_left (apply tm) History.empty actions)

let enabled tm ~nprocs ~invocations =
  List.concat_map
    (fun p ->
      match tm.Tm_impl.Tm_intf.pending p with
      | Some _ -> [ Exh.Poll p ]
      | None -> List.map (fun inv -> Exh.Invoke (p, inv)) invocations)
    (List.init nprocs (fun i -> i + 1))

let replay_preorder entry ~nprocs ~ntvars ~invocations ~depth =
  let nodes = ref [] in
  let rec dfs actions d =
    let tm, h = replay entry ~nprocs ~ntvars actions in
    nodes := (h, actions) :: !nodes;
    if d > 0 then
      List.iter
        (fun a -> dfs (actions @ [ a ]) (d - 1))
        (enabled tm ~nprocs ~invocations)
  in
  dfs [] depth;
  List.rev !nodes

let diff_invocations =
  [ Event.Read 0; Event.Read 1; Event.Write (0, 1); Event.Write (1, 2);
    Event.Try_commit ]

(* With 3 processes the last child (of process 3) reuses its parent's
   instance on nodes where processes 1 and 2 expanded first. *)
let test_copy_matches_replay_preorder () =
  List.iter
    (fun (nprocs, depth) ->
      List.iter
        (fun entry ->
          let name = Fmt.str "%s, %d processes" entry.Reg.entry_name nprocs in
          let got = ref [] in
          Exh.run entry ~nprocs ~ntvars:2 ~invocations:diff_invocations ~depth
            ~on_history:(fun h actions -> got := (h, actions ()) :: !got);
          let got = List.rev !got in
          let want =
            replay_preorder entry ~nprocs ~ntvars:2
              ~invocations:diff_invocations ~depth
          in
          Alcotest.(check int) (name ^ ": node count") (List.length want)
            (List.length got);
          List.iteri
            (fun i ((h, a), (h', a')) ->
              if a <> a' then
                Alcotest.failf "%s: node %d: action lists differ" name i;
              if not (History.equal h h') then
                Alcotest.failf "%s: node %d: histories differ:@ %a@ vs@ %a"
                  name i History.pp h History.pp h')
            (List.combine got want))
        Reg.all)
    [ (2, 6); (3, 5) ]

(* Invocations at the last level are never handed to the TM, so the menu
   is range-checked up front: an out-of-range t-variable still raises at
   depth 1. *)
let test_invalid_invocation_raises () =
  match
    Exh.run tl2 ~nprocs:2 ~ntvars:1 ~invocations:[ Event.Read 5 ] ~depth:1
      ~on_history:(fun _ _ -> ())
  with
  | () -> Alcotest.fail "Read 5 with 1 t-variable was enumerated"
  | exception Invalid_argument _ -> ()

(* An instance and its copy driven apart, in alternation: each must
   answer as a fresh instance replaying its own actions, so neither may
   see the other's mutations (a shared or wrongly de-aliased block shows
   up as a divergent response).  Random enabled actions; three processes
   so that commits contend and OSTM helps. *)
type driven = {
  tm : Tm_impl.Tm_intf.instance;
  mutable h : History.t;
  mutable rev : Exh.action list;
}

let test_copies_are_independent () =
  let nprocs = 3 and ntvars = 2 in
  let step g d =
    let choices = enabled d.tm ~nprocs ~invocations:diff_invocations in
    let a = List.nth choices (Tm_sim.Prng.int g (List.length choices)) in
    d.h <- apply d.tm d.h a;
    d.rev <- a :: d.rev
  in
  List.iter
    (fun entry ->
      let name = entry.Reg.entry_name in
      for seed = 1 to 100 do
        let g = Tm_sim.Prng.create seed in
        let original =
          {
            tm = Reg.instance entry (Tm_impl.Tm_intf.config ~nprocs ~ntvars ());
            h = History.empty;
            rev = [];
          }
        in
        for _ = 1 to Tm_sim.Prng.int g 40 do
          step g original
        done;
        let copy = { original with tm = original.tm.Tm_impl.Tm_intf.copy () } in
        for _ = 1 to 40 do
          step g original;
          step g copy
        done;
        List.iter
          (fun (which, d) ->
            let oracle, h = replay entry ~nprocs ~ntvars (List.rev d.rev) in
            if not (History.equal d.h h) then
              Alcotest.failf "%s seed %d: %s diverged from replay:@ %a@ vs@ %a"
                name seed which History.pp d.h History.pp h;
            for p = 1 to nprocs do
              if
                d.tm.Tm_impl.Tm_intf.pending p
                <> oracle.Tm_impl.Tm_intf.pending p
              then
                Alcotest.failf "%s seed %d: %s p%d pending differs" name seed
                  which p
            done)
          [ ("original", original); ("copy", copy) ]
      done)
    Reg.all

(* [blit] overwrites every field.  Two instances are driven apart on
   different seeds and the first is blitted into the second; then both
   take the same seeded walk, the first to its end before the second
   starts.  Each must answer as a fresh instance replaying its own
   actions (the second's begin with the first's): a field the blit
   skips keeps the second's old value, and a block it shares carries
   the first's later moves into the second. *)
let test_blit_overwrites_every_field () =
  let nprocs = 3 and ntvars = 2 in
  let cfg = Tm_impl.Tm_intf.config ~nprocs ~ntvars () in
  List.iter
    (fun entry ->
      let (module M) = entry.Reg.impl and name = entry.Reg.entry_name in
      let driven t =
        let tm =
          {
            Tm_impl.Tm_intf.name;
            invoke = M.invoke t;
            poll = M.poll t;
            pending = M.pending t;
            copy = (fun () -> Alcotest.fail "not copied");
          }
        in
        { tm; h = History.empty; rev = [] }
      in
      let drive seed steps d =
        let g = Tm_sim.Prng.create seed in
        for _ = 1 to steps do
          let choices = enabled d.tm ~nprocs ~invocations:diff_invocations in
          let a = List.nth choices (Tm_sim.Prng.int g (List.length choices)) in
          d.h <- apply d.tm d.h a;
          d.rev <- a :: d.rev
        done
      in
      for seed = 1 to 100 do
        let src = M.create cfg and into = M.create cfg in
        let a = driven src and b = driven into in
        drive seed (10 + (seed mod 30)) a;
        drive (500 + seed) (10 + (seed * 7 mod 30)) b;
        M.blit src ~into;
        b.h <- a.h;
        b.rev <- a.rev;
        drive (1000 + seed) 40 a;
        drive (1000 + seed) 40 b;
        List.iter
          (fun (which, d) ->
            let oracle, h = replay entry ~nprocs ~ntvars (List.rev d.rev) in
            if not (History.equal d.h h) then
              Alcotest.failf "%s seed %d: %s diverged from replay:@ %a@ vs@ %a"
                name seed which History.pp d.h History.pp h;
            for p = 1 to nprocs do
              if
                d.tm.Tm_impl.Tm_intf.pending p
                <> oracle.Tm_impl.Tm_intf.pending p
              then
                Alcotest.failf "%s seed %d: %s p%d pending differs" name seed
                  which p
            done)
          [ ("source", a); ("blitted", b) ]
      done)
    Reg.all

(* The reachable-state graph, on fgp under Figure 15's menu (one process,
   one binary t-variable) keyed by its automaton state. *)
module Fgp = Tm_impl.Fgp

let fig15_invocations =
  [ Event.Read 0; Event.Write (0, 0); Event.Write (0, 1); Event.Try_commit ]

let fgp_graph ?(nprocs = 1) ?(invocations = fig15_invocations) depth =
  Exh.graph (module Fgp) ~key:Fgp.state ~nprocs ~ntvars:1 ~invocations ~depth

let fgp_replay ?(nprocs = 1) actions =
  let t = Fgp.create (Tm_impl.Tm_intf.config ~nprocs ~ntvars:1 ()) in
  List.iter
    (function
      | Exh.Invoke (p, inv) -> Fgp.invoke t p inv
      | Exh.Poll p -> ignore (Fgp.poll t p))
    actions;
  t

(* Each state's action list leads to it and is as long as its
   breadth-first layer (worked by hand from Figure 15). *)
let test_graph_shortest_witnesses () =
  let g = Exh.fig15 () in
  List.iter
    (fun (k, path) ->
      if Fgp.state (fgp_replay path) <> k then
        Alcotest.failf "the witness of %a leads elsewhere" Fgp.pp_state k)
    g.Exh.states;
  Alcotest.(check (list int))
    "witness lengths" [ 0; 1; 1; 1; 1; 2; 2; 3; 3; 4 ]
    (List.map (fun (_, path) -> List.length path) g.Exh.states)

(* The tenth state is first reached at distance 4: a bound of 4 lists it
   but does not expand it, so the graph cannot claim to be closed. *)
let test_graph_depth_bound () =
  let cut = fgp_graph 4 and closed = Exh.fig15 () in
  Alcotest.(check (pair bool bool))
    "complete at 4, at 5" (false, true)
    (cut.Exh.complete, closed.Exh.complete);
  Alcotest.(check (triple int int int))
    "states at 4, edges at 4 and at 5" (10, 18, 22)
    ( List.length cut.Exh.states,
      List.length cut.Exh.edges,
      List.length closed.Exh.edges )

(* The header, then the states in discovery order, then the edges. *)
let test_graph_dot () =
  let dot =
    Exh.to_dot
      ~state_label:(Fmt.str "%a" Fgp.pp_state)
      (Exh.fig15 ())
  in
  Alcotest.(check (list string))
    "header, s1, the first edge, the end"
    [
      "digraph automaton {";
      "  rankdir=LR;";
      "  s1 [label=\"(status=[c] cp={} val=[0] f=[_])\"];";
      "  s1 -> s2 [label=\"x0.read\"];";
      "}";
      "";
    ]
    (List.filteri
       (fun i _ -> i < 3 || i = 12 || i >= 34)
       (String.split_on_char '\n' dot))

(* The graph against the tree: with one process, the keys [graph] finds
   are exactly the states of the nodes [run] enumerates at the same
   depth, each node's state taken by replaying its action list. *)
let test_graph_matches_run () =
  let fgp = Option.get (Reg.find "fgp") in
  for depth = 0 to 6 do
    let by_run = ref [] in
    Exh.run fgp ~nprocs:1 ~ntvars:1 ~invocations:fig15_invocations ~depth
      ~on_history:(fun _ actions ->
        by_run := Fgp.state (fgp_replay (actions ())) :: !by_run);
    Alcotest.(check bool)
      (Fmt.str "depth %d" depth) true
      (List.sort_uniq compare !by_run
      = List.sort compare (List.map fst (fgp_graph depth).Exh.states))
  done

(* [Fgp.state] leaves out the committed snapshot that an abort restores,
   so it is no key for two processes.  p1 commits 0 (or its own write of
   1) and dooms p2, then both write 1: the two states share a key, but
   p2's abort restores 0 in one and 1 in the other, and the graph
   follows only the first. *)
let test_graph_fgp_key_needs_one_process () =
  let w p = Exh.Invoke (p, Event.Write (0, 1)) and poll p = Exh.Poll p in
  let head = [ Exh.Invoke (2, Event.Read 0); poll 2 ]
  and tail = [ Exh.Invoke (1, Event.Try_commit); poll 1; w 1; poll 1; w 2 ] in
  let zero = fgp_replay ~nprocs:2 (head @ tail)
  and one = fgp_replay ~nprocs:2 (head @ [ w 1; poll 1 ] @ tail) in
  let k = Fgp.state one in
  Alcotest.(check bool) "same key" true (Fgp.state zero = k);
  ignore (Fgp.poll zero 2, Fgp.poll one 2);
  Alcotest.(check bool) "different successors" false
    (Fgp.state zero = Fgp.state one);
  let g = fgp_graph ~nprocs:2 ~invocations:sweep_invocations 8 in
  Alcotest.(check bool) "the graph follows the first" true
    (List.exists
       (fun (k0, a, _, k') -> k0 = k && a = Exh.Poll 2 && k' = Fgp.state zero)
       g.Exh.edges)

(* ------------------------------------------------------------------ *)
(* Allocation gates for the paper pipeline: words are deterministic, so
   these hold on any number of cores.  A reading counts this domain's
   words only, exact at any instant: [Gc.minor_words] includes the
   minor heap's current fill, and [Gc.counters]' major and promoted
   words are this domain's own (its minor count is not used: on OCaml
   5.1 it undercounts that fill).  ([Gc.quick_stat]'s counters advance
   only at minor collections and add every other domain's, including
   one that exits during the reading, so they can lag or jump by a
   minor heap.) *)

let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let words_of f =
  let w0 = words () in
  f ();
  words () -. w0

let check_at_most what bound got =
  if got > bound then Alcotest.failf "%s: %.1f words, bound %g" what got bound

(* The paper pipeline's sweep grid: the zoo x four fault patterns x
   four seeds, 4,000 steps each. *)
let pipeline_grid () =
  Tm_sim.Sweep.grid
    ~patterns:(Tm_sim.Sweep.fault_patterns ~steps:4000 ())
    ~seeds:[ 1; 2; 3; 4 ] ()

let tl2_depth10 on_history =
  Exh.run tl2 ~nprocs:2 ~ntvars:1 ~invocations:sweep_invocations ~depth:10
    ~on_history

(* The generator's state is updated in place: a draw that returns a
   native int or a bool allocates nothing (the loop's 10,000 draws
   share the measurement's own few words). *)
let test_prng_words () =
  let g = Tm_sim.Prng.create 1 and n = 10_000 in
  let per f = words_of (fun () -> for _ = 1 to n do f () done) /. float n in
  let draw f () = ignore (Sys.opaque_identity (f g)) in
  check_at_most "words per Prng.int" 0.01
    (per (draw (fun g -> Tm_sim.Prng.int g 1000)));
  check_at_most "words per Prng.bits" 0.01
    (per (draw (fun g -> Tm_sim.Prng.bits g 53)));
  check_at_most "words per Prng.bool" 0.01 (per (draw Tm_sim.Prng.bool))

(* The walk blits each child but the last into its level's instance,
   so what a node allocates is its history event and what its TM step
   allocates: 7.21 words per node. *)
let test_enumeration_words () =
  let n = ref 0 in
  let w = words_of (fun () -> tl2_depth10 (fun _ _ -> incr n)) in
  check_at_most "words per enumerated node" 10. (w /. float_of_int !n)

(* Words per node at depth 8, at most, for each zoo member: the measured
   figure (in the comment) plus 2 words, rounded up to a half word.
   OSTM's commits publish descriptors.  tl2 read 10.4 while each commit
   built its write set twice with [List.sort_uniq] and [List.assoc], and
   7.46 while a read of its own write went through [List.assoc_opt]. *)
let enumeration_bound = function
  | "fgp" | "fgp-priority" -> 8.5 (* 6.11, 6.11 *)
  | "twopl" -> 8.5 (* 6.41 *)
  | "global-lock" -> 9.5 (* 7.19 *)
  | "tl2" | "norec" -> 9.5 (* 7.39, 7.39 *)
  | "mvstm" -> 9.5 (* 7.44 *)
  | "tinystm" | "tinystm-ext" -> 10. (* 7.57, 7.57 *)
  | "quiescent" -> 10. (* 7.52 *)
  | "dstm-aggressive" | "dstm-polite-4" | "dstm-karma" ->
      10. (* 7.98, 7.65, 7.88 *)
  | "dstm-greedy" | "swisstm" -> 10.5 (* 8.14, 8.17 *)
  | "ostm" -> 12. (* 9.76 *)
  | name -> Alcotest.failf "%s: no enumeration bound" name

let test_enumeration_words_zoo () =
  List.iter
    (fun entry ->
      let name = entry.Reg.entry_name and n = ref 0 in
      let w =
        words_of (fun () ->
            Exh.run entry ~nprocs:2 ~ntvars:1 ~invocations:sweep_invocations
              ~depth:8 ~on_history:(fun _ _ -> incr n))
      in
      check_at_most
        (name ^ ": words per enumerated node at depth 8")
        (enumeration_bound name) (w /. float_of_int !n))
    Reg.all

(* Each model-check history extends one checked just before, so the
   monitor resumes from its saved prefix: it steps about one event per
   history and saves or restores a frame without allocating.  What is
   left is the versions its commits install (0.01 words per history). *)
let test_monitor_words () =
  let n = ref 0 in
  let bare = words_of (fun () -> tl2_depth10 (fun _ _ -> ())) in
  let checked =
    words_of (fun () ->
        tl2_depth10 (fun h _ ->
            incr n;
            ignore (Sys.opaque_identity (Tm_safety.Monitor.run h))))
  in
  check_at_most "Monitor.run words per history" 1.
    ((checked -. bare) /. float_of_int !n)

(* The 256 histories of the paper pipeline's sweep (the zoo x four fault
   patterns x four seeds, 4,000 steps each) are longer than any resumable
   prefix: each is checked from scratch, walking its events in place.
   What is left is the state's own: versions and log growth (1.0 words
   per event). *)
let test_monitor_event_words () =
  let histories =
    List.map
      (fun c ->
        (Tm_sim.Runner.run c.Tm_sim.Sweep.tm c.Tm_sim.Sweep.spec)
          .Tm_sim.Runner.history)
      (pipeline_grid ())
  in
  let events = List.fold_left (fun n h -> n + History.length h) 0 histories in
  let w =
    words_of (fun () ->
        List.iter
          (fun h -> ignore (Sys.opaque_identity (Tm_safety.Monitor.run h)))
          histories)
  in
  Alcotest.(check int) "sweep histories" 256 (List.length histories);
  check_at_most "Monitor.run words per event" 2. (w /. float_of_int events)

(* The largest ids take tables proportional to them while the history is
   checked; none of it stays with the domain afterwards. *)
let test_monitor_retains_little () =
  let p = 1_048_575 in
  let h =
    History.steps [ History.write p p 1; History.read p p 1; History.commit p ]
  in
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  ignore (Sys.opaque_identity (Tm_safety.Monitor.run History.empty));
  let before = live () in
  ignore (Sys.opaque_identity (Tm_safety.Monitor.run h));
  let after = live () in
  if after - before > 65_536 then
    Alcotest.failf "Monitor.run retained %d words" (after - before)

(* One 4,000-step sweep row: per step, the runner's own work (choosing
   a process, recording the event) plus global-lock's poll. *)
let test_runner_words () =
  let global_lock = Option.get (Reg.find "global-lock") in
  let configs =
    Tm_sim.Sweep.grid ~tms:[ global_lock ]
      ~patterns:(Tm_sim.Sweep.fault_patterns ~steps:4000 ())
      ~seeds:[ 1 ] ()
  in
  let steps = ref 0 in
  let w =
    words_of (fun () ->
        List.iter
          (fun c ->
            let o = Tm_sim.Runner.run c.Tm_sim.Sweep.tm c.Tm_sim.Sweep.spec in
            steps := !steps + o.Tm_sim.Runner.steps_taken)
          configs)
  in
  check_at_most "Runner.run words per step" 10. (w /. float_of_int !steps)

(* An untraced sweep run builds no history: per step, the runner's own
   work and the metrics tally, plus what the TM and the workload
   allocate.  Over the zoo's 1,000-step grid this reads 5.38 words per
   step (14.49 while the runner kept each attempt's reads in a list and
   the zoo sorted write sets with [List.sort_uniq]), and 8.76 when the
   same loop also builds the history.  The bound is that plus about 2
   words. *)
let test_history_free_words () =
  let configs =
    Tm_sim.Sweep.grid
      ~patterns:(Tm_sim.Sweep.fault_patterns ~steps:1000 ())
      ~seeds:[ 1 ] ()
  in
  let steps = ref 0 in
  let w =
    words_of (fun () ->
        List.iter
          (fun c ->
            let m =
              Tm_sim.Runner.metrics c.Tm_sim.Sweep.tm c.Tm_sim.Sweep.spec
            in
            steps := !steps + m.Tm_sim.Metrics.steps)
          configs)
  in
  check_at_most "Runner.metrics words per step" 7.5
    (w /. float_of_int !steps)

(* An untraced sweep's results hold configurations and metrics only:
   each run tallies its metrics and builds no history.  Held
   results of the zoo's healthy 2,000-step sweep keep 1,440 words
   live (135,645 while every result kept its history). *)
let test_sweep_retains_little () =
  let configs =
    Tm_sim.Sweep.grid
      ~patterns:
        (List.filter
           (fun (name, _) -> name = "healthy")
           (Tm_sim.Sweep.fault_patterns ~steps:2000 ()))
      ~seeds:[ 1 ] ()
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let results = Tm_sim.Sweep.run configs in
  let after = live () in
  Alcotest.(check int) "zoo rows" 16 (List.length results);
  check_at_most "words live in untraced sweep results" 4_000.
    (float_of_int (after - before))

let test_sweep_tl2 () = sweep_tm_opaque "tl2" 7
let test_sweep_tinystm () = sweep_tm_opaque "tinystm" 7
let test_sweep_tinystm_ext () = sweep_tm_opaque "tinystm-ext" 7
let test_sweep_swisstm () = sweep_tm_opaque "swisstm" 7
let test_sweep_fgp () = sweep_tm_opaque "fgp" 7
let test_sweep_dstm () = sweep_tm_opaque "dstm-aggressive" 7
let test_sweep_quiescent () = sweep_tm_opaque "quiescent" 7

(* ------------------------------------------------------------------ *)
(* The domain pool. *)

let test_pool_map_order () =
  Tm_sim.Pool.with_pool ~jobs:4 (fun pool ->
      let xs = Array.init 100 Fun.id in
      let ys = Tm_sim.Pool.map_array pool (fun x -> x * x) xs in
      Alcotest.(check (array int)) "results in input order"
        (Array.map (fun x -> x * x) xs)
        ys;
      (* A second batch on the same pool. *)
      let zs = Tm_sim.Pool.map_array pool string_of_int [| 3; 1; 2 |] in
      Alcotest.(check (array string)) "second batch" [| "3"; "1"; "2" |] zs)

let test_pool_single_job_inline () =
  Tm_sim.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "one job" 1 (Tm_sim.Pool.jobs pool);
      let ran_in = ref (-1) in
      let _ =
        Tm_sim.Pool.map_array pool
          (fun i ->
            ran_in := (Domain.self () :> int);
            i)
          [| 0 |]
      in
      Alcotest.(check int) "ran in the caller's domain"
        ((Domain.self () :> int))
        !ran_in)

let test_pool_propagates_exception () =
  Tm_sim.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.check_raises "exception resurfaces" Exit (fun () ->
          ignore
            (Tm_sim.Pool.map_array pool
               (fun i -> if i = 7 then raise Exit else i)
               (Array.init 20 Fun.id)));
      (* The pool survives a failed batch. *)
      let ok = Tm_sim.Pool.map_array pool succ [| 1; 2 |] in
      Alcotest.(check (array int)) "pool still works" [| 2; 3 |] ok)

let test_pool_shutdown_rejects () =
  let pool = Tm_sim.Pool.create ~jobs:2 in
  Tm_sim.Pool.shutdown pool;
  Tm_sim.Pool.shutdown pool;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.map_array: pool is shut down") (fun () ->
      ignore (Tm_sim.Pool.map_array pool Fun.id (Array.init 8 Fun.id)))

(* ------------------------------------------------------------------ *)
(* Metrics. *)

module H = Tm_sim.Hist

let hist_of_list vs =
  let h = H.create H.sim in
  List.iter (H.add h) vs;
  h

let test_metrics_histogram () =
  let h = hist_of_list [ 0; 1; 2; 3; 4; 1000000 ] in
  Alcotest.(check int) "count" 6 h.H.count;
  Alcotest.(check int) "max" 1000000 h.H.max_sample;
  Alcotest.(check int) "bucket 0 (value 0)" 1 h.H.buckets.(0);
  Alcotest.(check int) "bucket 1 (value 1)" 1 h.H.buckets.(1);
  Alcotest.(check int) "bucket 2 (values 2-3)" 2 h.H.buckets.(2);
  Alcotest.(check int) "bucket 3 (values 4-7)" 1 h.H.buckets.(3);
  Alcotest.(check int) "overflow bucket" 1 h.H.buckets.(H.nbuckets H.sim - 1);
  Alcotest.(check string) "labels" "4-7" (Tm_sim.Metrics.hist_bucket_label 3);
  let m = H.merge h h in
  Alcotest.(check int) "merge doubles" 12 m.H.count

(* The library's tally of a hand-written history, fed event by event
   as the runner feeds it. *)
let tally_history ~nprocs ~steps h =
  let module M = Tm_sim.Metrics in
  let t = M.tally ~nprocs ~capacity:(max 1 (History.length h / 4)) in
  History.iter
    (function
      | Event.Inv (p, inv) -> M.tally_invocation t p inv
      | Event.Res (p, r) -> M.tally_response t p r)
    h;
  M.of_tally t ~defers:0 ~steps

let test_metrics_tally () =
  (* A hand-written history: p1 aborts once on a read, retries and
     commits; p2 aborts at tryC. *)
  let h =
    History.steps
      [
        History.read_aborted 1 0;
        History.read 1 0 0;
        History.commit 1;
        History.read 2 0 0;
        History.abort 2;
      ]
  in
  let m = tally_history ~nprocs:2 ~steps:10 h in
  Alcotest.(check int) "commits" 1 m.Tm_sim.Metrics.commits;
  Alcotest.(check int) "aborts" 2 m.Tm_sim.Metrics.aborts;
  Alcotest.(check int) "invocations" 5 m.Tm_sim.Metrics.invocations;
  Alcotest.(check int) "events" 10 m.Tm_sim.Metrics.events;
  Alcotest.(check int) "abort on read" 1
    m.Tm_sim.Metrics.abort_causes.Tm_sim.Metrics.on_read;
  Alcotest.(check int) "abort on commit" 1
    m.Tm_sim.Metrics.abort_causes.Tm_sim.Metrics.on_commit;
  Alcotest.(check int) "one commit at retry depth 1" 1
    m.Tm_sim.Metrics.retry_depth.H.buckets.(1);
  Alcotest.(check int) "commit latency samples" 1
    m.Tm_sim.Metrics.commit_latency.H.count;
  (* p1's committing transaction: Inv Read at index 2, Committed at
     index 5, so latency 3. *)
  Alcotest.(check int) "commit latency value" 3
    m.Tm_sim.Metrics.commit_latency.H.sum;
  let buf = Buffer.create 256 in
  Tm_sim.Metrics.to_json buf m;
  let json = Buffer.contents buf in
  Alcotest.(check bool) "json has abort causes" true
    (Tm_test_util.Util.contains json
       "\"abort_causes\":{\"read\":1,\"write\":0,\"commit\":1}")

let test_metrics_histogram_edges () =
  let module M = Tm_sim.Metrics in
  let last = H.nbuckets H.sim - 1 in
  (* Overflow boundary: 2^(nbuckets-2) is the first value of the last
     ordinary range's upper neighbour — both 2^(nbuckets-2) and anything
     larger land in the overflow bucket. *)
  let h =
    hist_of_list
      [ (1 lsl (last - 1)) - 1; 1 lsl (last - 1); 1 lsl last; max_int ]
  in
  Alcotest.(check int) "8191 is the last non-overflow value" 1
    h.H.buckets.(last - 1);
  Alcotest.(check int) "8192, 16384 and max_int all overflow" 3
    h.H.buckets.(last);
  (* Negative samples count as 0. *)
  let hneg = hist_of_list [ -5 ] in
  Alcotest.(check int) "negative sample lands in bucket 0" 1
    hneg.H.buckets.(0);
  (* Labels at the boundaries. *)
  Alcotest.(check string) "label 0" "0" (M.hist_bucket_label 0);
  Alcotest.(check string) "label 1" "1" (M.hist_bucket_label 1);
  Alcotest.(check string) "label 2" "2-3" (M.hist_bucket_label 2);
  Alcotest.(check string) "penultimate label" "4096-8191"
    (M.hist_bucket_label (last - 1));
  Alcotest.(check string) "overflow label" "8192+" (M.hist_bucket_label last)

let test_metrics_histogram_empty_pp () =
  (* A sample-free histogram renders as "(empty)", not a zero-bar chart
     or a division by zero. *)
  Alcotest.(check string)
    "empty histogram prints (empty)" "(empty)"
    (Fmt.str "%a" Tm_sim.Metrics.pp_histogram (H.create H.sim))

let test_metrics_hist_merge_laws () =
  let a = hist_of_list [ 0; 1; 7; 9000; 12 ]
  and b = hist_of_list [ 3; 3; 3; 100000 ]
  and c = hist_of_list [ 42 ] in
  let eq name x y =
    Alcotest.(check (array int)) (name ^ " buckets") x.H.buckets y.H.buckets;
    Alcotest.(check int) (name ^ " count") x.H.count y.H.count;
    Alcotest.(check int) (name ^ " sum") x.H.sum y.H.sum;
    Alcotest.(check int) (name ^ " max") x.H.max_sample y.H.max_sample
  in
  let empty = H.create H.sim in
  eq "left identity" (H.merge empty a) a;
  eq "right identity" (H.merge a empty) a;
  eq "associativity" (H.merge (H.merge a b) c) (H.merge a (H.merge b c));
  eq "commutativity" (H.merge a b) (H.merge b a)

let test_metrics_fault_counters () =
  let module M = Tm_sim.Metrics in
  (* 16 events, so the empirical window is the last 4: p2's complete
     commit step and p3's aborted read.  p1 was active early but is
     silent in the window (crashed -> fault); p3 aborts without
     committing (starving); p2 commits (neither). *)
  let h =
    History.steps
      [
        History.read 1 0 0;
        History.read 2 0 0;
        History.read 3 0 0;
        History.write 2 0 1;
        History.write 3 0 1;
        History.read 1 0 0;
        History.commit 2;
        History.read_aborted 3 0;
      ]
  in
  let m = tally_history ~nprocs:3 ~steps:20 h in
  Alcotest.(check int) "one crashed-looking process" 1 m.M.faults;
  Alcotest.(check int) "one starving process" 1 m.M.starvations;
  (* merge sums the counters (and is the identity on a zeroed side). *)
  let mm = M.merge m m in
  Alcotest.(check int) "merge sums faults" 2 mm.M.faults;
  Alcotest.(check int) "merge sums starvations" 2 mm.M.starvations;
  let z = { m with M.faults = 0; starvations = 0 } in
  let mz = M.merge m z in
  Alcotest.(check int) "zero is neutral for faults" m.M.faults mz.M.faults;
  Alcotest.(check int) "zero is neutral for starvations" m.M.starvations
    mz.M.starvations;
  let buf = Buffer.create 256 in
  M.to_json buf m;
  let json = Buffer.contents buf in
  Alcotest.(check bool) "json exports the fault counters" true
    (Tm_test_util.Util.contains json "\"faults\":1,\"starvations\":1")

(* The run metrics as [Metrics.of_outcome] read them off a history before
   that walk became one pass, and long before the runner tallied them as
   it records: the reference for the runner's metrics.  A fold for the
   process count, a walk for the abort causes, retry depths and
   latencies, and the fault counters read off [Empirical.classify_window]
   as it was then (a fold for the process range, then a count pass). *)
module Four_pass = struct
  module M = Tm_sim.Metrics

  let fault_counters h =
    let n = History.length h in
    if n = 0 then (0, 0)
    else begin
      let window = max 1 (n / 4) in
      let lo = ref max_int and hi = ref min_int in
      List.iter
        (fun e ->
          lo := Int.min !lo (Event.proc e);
          hi := Int.max !hi (Event.proc e))
        (History.rev_events h);
      let lo = !lo in
      let size = !hi - lo + 1 in
      let total = Array.make size 0
      and in_window = Array.make size 0
      and commits = Array.make size 0
      and aborts = Array.make size 0
      and trycs = Array.make size 0 in
      let next = ref 0 in
      History.iter
        (fun e ->
          let k = Event.proc e - lo in
          total.(k) <- total.(k) + 1;
          if !next >= n - window then begin
            in_window.(k) <- in_window.(k) + 1;
            if Event.is_commit e then commits.(k) <- commits.(k) + 1;
            if Event.is_abort e then aborts.(k) <- aborts.(k) + 1;
            if Event.is_try_commit e then trycs.(k) <- trycs.(k) + 1
          end;
          incr next)
        h;
      let faults = ref 0 and starved = ref 0 in
      for k = 0 to size - 1 do
        if total.(k) > 0 then begin
          let looks_crashed = in_window.(k) = 0 in
          let looks_parasitic =
            in_window.(k) > 0 && trycs.(k) = 0 && aborts.(k) = 0
          in
          if looks_crashed || looks_parasitic then incr faults
          else if in_window.(k) > 0 && commits.(k) = 0 then incr starved
        end
      done;
      (!faults, !starved)
    end

  type cause = On_read | On_write | On_commit

  let of_history h =
    let nprocs =
      List.fold_left
        (fun acc e -> Int.max acc (Event.proc e))
        0 (History.rev_events h)
    in
    let txn_start = Array.make (nprocs + 1) (-1) in
    let pending = Array.make (nprocs + 1) On_commit in
    let retries = Array.make (nprocs + 1) 0 in
    let on_read = ref 0 and on_write = ref 0 and on_commit = ref 0 in
    let retry_depth = ref [] and commit_latency = ref [] in
    let abort_latency = ref [] in
    List.iteri
      (fun i (e : Event.t) ->
        match e with
        | Event.Inv (p, inv) ->
            if txn_start.(p) < 0 then txn_start.(p) <- i;
            pending.(p) <-
              (match inv with
              | Event.Read _ -> On_read
              | Event.Write _ -> On_write
              | Event.Try_commit -> On_commit)
        | Event.Res (p, resp) -> (
            let latency = i - Int.max 0 txn_start.(p) in
            match resp with
            | Event.Value _ | Event.Ok_written -> pending.(p) <- On_commit
            | Event.Committed ->
                commit_latency := latency :: !commit_latency;
                retry_depth := retries.(p) :: !retry_depth;
                retries.(p) <- 0;
                txn_start.(p) <- -1;
                pending.(p) <- On_commit
            | Event.Aborted ->
                (match pending.(p) with
                | On_read -> incr on_read
                | On_write -> incr on_write
                | On_commit -> incr on_commit);
                abort_latency := latency :: !abort_latency;
                retries.(p) <- retries.(p) + 1;
                txn_start.(p) <- -1;
                pending.(p) <- On_commit))
      (History.events h);
    ( { M.on_read = !on_read; on_write = !on_write; on_commit = !on_commit },
      hist_of_list !retry_depth,
      hist_of_list !commit_latency,
      hist_of_list !abort_latency )

  let of_outcome (o : Tm_sim.Runner.outcome) =
    let h = o.Tm_sim.Runner.history in
    let abort_causes, retry_depth, commit_latency, abort_latency =
      of_history h
    in
    let faults, starvations = fault_counters h in
    {
      M.commits = Tm_sim.Runner.commit_total o;
      aborts = Tm_sim.Runner.abort_total o;
      invocations = Tm_sim.Runner.total o.Tm_sim.Runner.invocations;
      defers = Tm_sim.Runner.total o.Tm_sim.Runner.defers;
      faults;
      starvations;
      steps = o.Tm_sim.Runner.steps_taken;
      events = History.length h;
      throughput = Tm_sim.Runner.throughput o;
      abort_causes;
      retry_depth;
      commit_latency;
      abort_latency;
    }
end

let qcheck_count =
  match Sys.getenv_opt "TM_QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 200)
  | None -> 200

(* Any zoo TM under any scheduler, with every kind of fate. *)
let gen_run =
  QCheck2.Gen.(
    let* tm = oneofl Reg.all in
    let* nprocs = int_range 1 4 in
    let* ntvars = int_range 1 4 in
    let* steps = int_bound 800 in
    let* seed = int_bound 1_000_000 in
    let* sched =
      oneof
        [
          return Tm_sim.Runner.Round_robin;
          return Tm_sim.Runner.Uniform;
          map (fun q -> Tm_sim.Runner.Quantum q) (int_range 1 5);
        ]
    in
    let fate =
      oneof
        [
          return Tm_sim.Runner.Healthy;
          map (fun t -> Tm_sim.Runner.Crash_at t) (int_bound steps);
          map (fun t -> Tm_sim.Runner.Parasitic_from t) (int_bound steps);
          map (fun k -> Tm_sim.Runner.Crash_after_write k) (int_range 1 4);
          map (fun k -> Tm_sim.Runner.Crash_mid_commit k) (int_bound 3);
        ]
    in
    let* fates =
      list_size (int_bound nprocs) (pair (int_range 1 nprocs) fate)
    in
    return
      (tm, Tm_sim.Runner.spec ~nprocs ~ntvars ~steps ~seed ~sched ~fates ()))

let print_run ((tm : Reg.entry), (s : Tm_sim.Runner.spec)) =
  Fmt.str "%s nprocs=%d ntvars=%d steps=%d seed=%d, %d fates"
    tm.Reg.entry_name s.Tm_sim.Runner.nprocs s.Tm_sim.Runner.ntvars s.Tm_sim.Runner.steps
    s.Tm_sim.Runner.seed
    (List.length s.Tm_sim.Runner.fates)

(* The runner's tally against the reference over the run's own history,
   and the history-free entry against the runner. *)
let prop_metrics_one_pass =
  QCheck2.Test.make ~count:qcheck_count ~print:print_run
    ~name:"runner metrics = four-pass reference" gen_run
    (fun (tm, spec) ->
      let o = Tm_sim.Runner.run tm spec in
      o.Tm_sim.Runner.metrics = Four_pass.of_outcome o
      && Tm_sim.Runner.metrics tm spec = o.Tm_sim.Runner.metrics)

(* The window's edges: the last [max 1 (events / 4)] events, read from a
   ring of [max 1 (steps / 4)] slots. *)
let test_metrics_window_edges () =
  let module R = Tm_sim.Runner in
  let check name (tm, spec) =
    let o = R.run tm spec in
    if o.R.metrics <> Four_pass.of_outcome o then
      Alcotest.failf "%s: runner metrics differ from the reference" name;
    if R.metrics tm spec <> o.R.metrics then
      Alcotest.failf "%s: history-free metrics differ from the runner's" name;
    o
  in
  let gl = Option.get (Reg.find "global-lock") in
  let o = check "0 steps" (tl2, R.spec ~nprocs:2 ~steps:0 ()) in
  Alcotest.(check int) "no events" 0 o.R.metrics.Tm_sim.Metrics.events;
  for steps = 1 to 3 do
    let o = check "under 4 events" (gl, R.spec ~nprocs:2 ~steps ()) in
    Alcotest.(check bool) "fewer than 4 events" true
      (o.R.metrics.Tm_sim.Metrics.events < 4)
  done;
  let o = check "16 events" (gl, R.spec ~nprocs:1 ~steps:16 ()) in
  Alcotest.(check int) "a length divisible by 4" 16
    o.R.metrics.Tm_sim.Metrics.events;
  let o =
    check "crash before the window"
      (tl2, R.spec ~nprocs:3 ~steps:400 ~seed:2 ~sched:R.Uniform
              ~fates:[ (1, R.Crash_at 100) ] ())
  in
  Alcotest.(check int) "the crashed process is a fault" 1
    o.R.metrics.Tm_sim.Metrics.faults;
  let o =
    check "everyone crashes"
      (tl2, R.spec ~nprocs:2 ~ntvars:1 ~steps:500 ~seed:1
              ~fates:[ (1, R.Crash_at 10); (2, R.Crash_at 10) ] ())
  in
  Alcotest.(check int) "the run stops at the crash" 10
    o.R.metrics.Tm_sim.Metrics.steps

(* The untraced sweep's runs against the runner's, on every
   configuration of the paper pipeline's grid. *)
let test_history_free_pipeline_grid () =
  List.iter
    (fun c ->
      let o = Tm_sim.Runner.run c.Tm_sim.Sweep.tm c.Tm_sim.Sweep.spec in
      if Tm_sim.Runner.metrics c.Tm_sim.Sweep.tm c.Tm_sim.Sweep.spec
         <> o.Tm_sim.Runner.metrics
      then Alcotest.failf "%s: metrics differ" (Tm_sim.Sweep.label c))
    (pipeline_grid ())

let test_sweep_grid_canonical_order () =
  let tms = List.filter_map Reg.find [ "tl2"; "fgp" ] in
  let configs =
    Tm_sim.Sweep.grid ~tms
      ~patterns:(Tm_sim.Sweep.fault_patterns ~steps:100 ())
      ~seeds:[ 1; 2 ] ()
  in
  Alcotest.(check int) "2 TMs x 4 patterns x 2 seeds" 16 (List.length configs);
  Alcotest.(check string) "TM-major order, then pattern, then seed"
    "tl2/healthy/seed=1" (Tm_sim.Sweep.label (List.hd configs));
  Alcotest.(check (list string)) "tl2 block precedes fgp block"
    [ "tl2"; "fgp" ]
    (List.sort_uniq
       (fun a b ->
         compare
           (List.assoc a [ ("tl2", 0); ("fgp", 1) ])
           (List.assoc b [ ("tl2", 0); ("fgp", 1) ]))
       (List.map
          (fun c -> c.Tm_sim.Sweep.tm.Reg.entry_name)
          configs))

let test_sweep_json_file_deterministic () =
  let tms = List.filter_map Reg.find [ "tl2" ] in
  let configs =
    Tm_sim.Sweep.grid ~tms
      ~patterns:(Tm_sim.Sweep.fault_patterns ~steps:100 ())
      ~seeds:[ 1 ] ()
  in
  let dump () =
    Tm_test_util.Util.with_temp_file ~suffix:".json" (fun path ->
        Tm_test_util.Util.write_file path
          (Tm_sim.Sweep.to_json (Tm_sim.Sweep.run configs));
        Tm_test_util.Util.read_file path)
  in
  Alcotest.(check string) "metrics JSON byte-stable through a file" (dump ())
    (dump ())

(* Users name their own TMs (examples/custom_tm.ml), and a name is
   written as a JSON string: UTF-8 as it is, not OCaml's "\195\169". *)
let test_sweep_json_utf8_name () =
  let tl2 = Option.get (Reg.find "tl2") in
  let configs =
    Tm_sim.Sweep.grid
      ~tms:[ { tl2 with Reg.entry_name = "tl2-\u{e9}" } ]
      ~patterns:[ List.hd (Tm_sim.Sweep.fault_patterns ~steps:50 ()) ]
      ~seeds:[ 1 ] ()
  in
  let doc = Tm_sim.Sweep.to_json (Tm_sim.Sweep.run configs) in
  let has sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length doc && (String.sub doc i n = sub || at (i + 1))
    in
    at 0
  in
  Alcotest.(check bool) "the run's tm is the name as a JSON string" true
    (has "{\"runs\":[{\"tm\":\"tl2-\u{e9}\",");
  Alcotest.(check bool) "and so is the per-TM total's" true
    (has "\"by_tm\":[{\"tm\":\"tl2-\u{e9}\",")

(* The whole zoo's sweep document, pinned before the metrics moved to
   mutable buckets and a one-pass window classifier. *)
let test_sweep_json_pinned () =
  let configs =
    Tm_sim.Sweep.grid
      ~patterns:(Tm_sim.Sweep.fault_patterns ~steps:300 ())
      ~seeds:[ 1; 2 ] ()
  in
  Alcotest.(check string)
    "sweep document MD5" "5912bc52b2b8b18c27b72fcfab656f1c"
    (Digest.to_hex
       (Digest.string (Tm_sim.Sweep.to_json (Tm_sim.Sweep.run configs))))

(* Pins recorded before the runner kept its live processes, fates and
   events in per-run tables: every scheduler's choice of process, the
   trace instants and the early exit must come out the same. *)
let md5 s = Digest.to_hex (Digest.string s)

(* [f name sched pin] for each scheduler, with its pin. *)
let each_sched f pins =
  List.iter2
    (fun (name, sched) pin -> f name sched pin)
    Tm_sim.Runner.
      [ ("rr", Round_robin); ("q3", Quantum 3); ("uniform", Uniform) ]
    pins

let test_sweep_scheds_pinned () =
  each_sched
    (fun name sched want ->
      let configs =
        Tm_sim.Sweep.grid
          ~patterns:(Tm_sim.Sweep.fault_patterns ~steps:4000 ~sched ())
          ~seeds:[ 1; 2 ] ()
      in
      Alcotest.(check string)
        (name ^ ": zoo sweep document MD5")
        want
        (md5 (Tm_sim.Sweep.to_json (Tm_sim.Sweep.run configs))))
    [
      "e4633723092d019febee503a8b7c3d7d";
      "38d5d30f137dcfdddcf741ea7b6f88e8";
      "bc887ef6da84ee8454fb175c7a858d07";
    ]

let test_trace_scheds_pinned () =
  let tms =
    List.filter_map Reg.find [ "tl2"; "fgp"; "global-lock"; "ostm" ]
  in
  each_sched
    (fun name sched want ->
      let results =
        Tm_sim.Sweep.run ~trace:true
          (Tm_sim.Sweep.grid ~tms
             ~patterns:(Tm_sim.Sweep.fault_patterns ~steps:600 ~sched ())
             ~seeds:[ 3 ] ())
      in
      let events =
        List.concat_map
          (fun r -> (Option.get r.Tm_sim.Sweep.r_traced).Tm_sim.Sweep.t_trace)
          results
      in
      Alcotest.(check string)
        (name ^ ": trace MD5")
        want
        (md5 (Tm_trace.Export.text_string events)))
    [
      "e2c297b57550f8adbf53068913718ca6";
      "65f5ce534c7a6ddad622a41137070e29";
      "4e705170a20813ce361551ec07a850bd";
    ]

(* Every process crashes, by each kind of crash: the run ends early, when
   the last one goes. *)
let test_all_crash_pinned () =
  let fates =
    Tm_sim.Runner.
      [ (1, Crash_at 40); (2, Crash_after_write 3); (3, Crash_mid_commit 0) ]
  in
  each_sched
    (fun name sched (want_tl2_steps, want) ->
      let doc = Buffer.create 4096 in
      List.iter
        (fun entry ->
          let o =
            Tm_sim.Runner.run entry
              (Tm_sim.Runner.spec ~nprocs:3 ~ntvars:2 ~steps:4000 ~seed:7
                 ~sched ~fates ())
          in
          if entry == tl2 then
            Alcotest.(check int)
              (name ^ ": tl2 stops when the last process crashes")
              want_tl2_steps o.Tm_sim.Runner.steps_taken;
          Buffer.add_string doc
            (Fmt.str "%s %d %s\n" entry.Reg.entry_name
               o.Tm_sim.Runner.steps_taken
               (Tm_history.Codec.history_to_string o.Tm_sim.Runner.history)))
        Reg.all;
      Alcotest.(check string)
        (name ^ ": zoo steps and histories MD5")
        want
        (md5 (Buffer.contents doc)))
    [
      (51, "d38abc4edfeadb70731ac0baae3c191d");
      (52, "45e440ee5c3491ded7c5b946fc376785");
      (43, "b531d8c88d378a60cebb9988672ff865");
    ]

(* ------------------------------------------------------------------ *)
(* Statistics helpers. *)

let test_stats () =
  let s = Tm_sim.Stats.of_ints [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "n" 5 s.Tm_sim.Stats.n;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Tm_sim.Stats.mean;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) s.Tm_sim.Stats.stddev;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Tm_sim.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Tm_sim.Stats.max;
  Alcotest.(check (float 1e-9)) "median" 3.0 s.Tm_sim.Stats.median;
  Alcotest.(check (float 1e-9)) "p100" 5.0
    (Tm_sim.Stats.percentile [ 1.; 2.; 3.; 4.; 5. ] 100.);
  Alcotest.(check (float 1e-9)) "p0 -> first" 1.0
    (Tm_sim.Stats.percentile [ 1.; 2.; 3.; 4.; 5. ] 0.);
  let one = Tm_sim.Stats.of_ints [ 7 ] in
  Alcotest.(check (float 1e-9)) "singleton stddev" 0.0 one.Tm_sim.Stats.stddev;
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Stats.summarize: empty series") (fun () ->
      ignore (Tm_sim.Stats.summarize []))

(* ------------------------------------------------------------------ *)
(* Interface conformance across the whole zoo. *)

let test_conformance_zoo () =
  List.iter
    (fun entry ->
      (* Blocking TMs may legitimately defer forever once a fault-like
         schedule arises; disable the patience bound for them. *)
      let patience =
        if entry.Reg.responsive then Some 2000 else None
      in
      match
        Tm_sim.Conformance.check ~steps:2000 ~seed:17 ~patience ~nprocs:3
          ~ntvars:2 entry
      with
      | Ok h ->
          Alcotest.(check bool)
            (entry.Reg.entry_name ^ " conforms")
            true
            (History.is_well_formed h)
      | Error v ->
          Alcotest.failf "%s violates the interface at step %d: %s"
            entry.Reg.entry_name v.Tm_sim.Conformance.at_step
            v.Tm_sim.Conformance.message)
    Reg.all

(* ------------------------------------------------------------------ *)
(* The controlled-execution circumvention (paper §1.3, second way). *)

let test_controlled_everyone_commits () =
  (* The same single-t-variable counter workload whose step-level
     round-robin scheduling starves p2 under fgp; with the TM in control
     of execution every submission commits. *)
  List.iter
    (fun name ->
      let entry = Option.get (Reg.find name) in
      let o =
        Tm_sim.Controlled.run entry ~nprocs:3 ~ntvars:1 ~submissions:20
          ~workload:(Tm_sim.Workload.counter ~ntvars:1)
          ~seed:1
      in
      for p = 1 to 3 do
        Alcotest.(check int)
          (Fmt.str "%s: p%d commits all submissions" name p)
          20
          o.Tm_sim.Controlled.committed.(p)
      done;
      Alcotest.(check bool) (name ^ ": history accepted by monitor") true
        (match Tm_safety.Monitor.run o.Tm_sim.Controlled.history with
        | Tm_safety.Monitor.Accepted -> true
        | Tm_safety.Monitor.No_witness _ -> false))
    [ "fgp"; "tl2"; "global-lock"; "quiescent"; "fgp-priority" ]

let test_controlled_counter_value () =
  (* 3 processes x 20 committed increments of one counter: the committed
     state must be exactly 60 — checked through the serialization witness
     of the recorded history. *)
  let entry = Option.get (Reg.find "tinystm") in
  let o =
    Tm_sim.Controlled.run entry ~nprocs:3 ~ntvars:1 ~submissions:20
      ~workload:(Tm_sim.Workload.counter ~ntvars:1)
      ~seed:2
  in
  match Tm_safety.Opacity.serialization o.Tm_sim.Controlled.history with
  | None -> Alcotest.fail "history should be opaque"
  | Some order ->
      let final =
        List.fold_left Tm_safety.Legality.commit_effect Tm_safety.Store.initial
          order
      in
      Alcotest.(check int) "no lost increments" 60 (Tm_safety.Store.get final 0)

(* A TM that answers every invocation in its first poll and allocates
   nothing: a read answers its store's value, and a write stores its
   value modulo 64, so every answer is one of [Tm_intf.answer]'s shared
   ones. *)
module Null_tm = struct
  module I = Tm_impl.Tm_intf

  type t = { cfg : I.config; mail : I.Mailbox.t; store : int array }

  include I.Make (struct
    type nonrec t = t

    let name = "null"
    let describe = "answers every invocation at once"

    let create (cfg : I.config) =
      { cfg; mail = I.Mailbox.create cfg; store = Array.make cfg.ntvars 0 }

    let blit t ~into =
      I.Mailbox.blit t.mail ~into:into.mail;
      I.blit_array t.store ~into:into.store

    let cfg t = t.cfg
    let mail t = t.mail

    let step t _ = function
      | Event.Read x -> I.value t.store.(x)
      | Event.Write (x, v) ->
          t.store.(x) <- v land 63;
          I.answer Event.Ok_written
      | Event.Try_commit -> I.answer Event.Committed
  end)
end

(* What the runner, the counter workload and the mailbox allocate per
   event, over a TM that allocates nothing: 1.09 words.  Of these, 0.83
   are the write invocation and its mailbox option (5 words in each
   transaction's 6 events), 0.06 the metrics window's ring (a 2-byte
   slot per 4 steps, in the minor heap) and the rest each run's set-up.
   The bound is that plus about 0.15 words: it read 1.28 while each
   slot was an int, in the major heap, and 5.77 while the runner kept
   each attempt's reads in a list, every draw built a fresh counter
   body and the mailbox wrapped every invocation (3.8 with a fresh body
   alone). *)
let test_runner_alone_words () =
  let null =
    {
      Reg.entry_name = Null_tm.name;
      entry_describe = Null_tm.describe;
      impl = (module Null_tm);
      responsive = true;
    }
  in
  let events = ref 0 in
  let w =
    words_of (fun () ->
        for seed = 1 to 4 do
          let m =
            Tm_sim.Runner.metrics null
              (Tm_sim.Runner.spec ~nprocs:3 ~steps:4000 ~seed
                 ~sched:Tm_sim.Runner.Uniform ())
          in
          events := !events + m.Tm_sim.Metrics.events
        done)
  in
  Alcotest.(check int) "one event per step" 16_000 !events;
  check_at_most "runner words per event" 1.25 (w /. float_of_int !events)

(* [Tm_intf.write_set] against the definition it replaced, on writes
   (latest first) to few t-variables, so most lists repeat one. *)
let prop_write_set =
  let sort_uniq_assoc writes =
    List.sort_uniq Int.compare (List.map fst writes)
    |> List.map (fun x -> (x, List.assoc x writes))
  in
  QCheck2.Test.make ~count:qcheck_count
    ~print:QCheck2.Print.(list (pair int int))
    ~name:"write set = sort_uniq and assoc"
    QCheck2.Gen.(list_size (int_bound 12) (pair (int_bound 6) (int_bound 99)))
    (fun writes ->
      Tm_impl.Tm_intf.write_set writes = sort_uniq_assoc writes)

let () =
  Alcotest.run "tm_sim"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "distribution" `Quick test_prng_distribution;
          Alcotest.test_case "split independence" `Quick
            test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "errors" `Quick test_prng_errors;
          Alcotest.test_case "golden streams" `Quick test_prng_golden;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "counter" `Quick test_workload_counter;
          Alcotest.test_case "transfer" `Quick test_workload_transfer;
          Alcotest.test_case "write-only" `Quick test_workload_write_only;
          Alcotest.test_case "fixed cycles" `Quick test_workload_fixed_cycles;
        ] );
      ( "runner edges",
        [
          Alcotest.test_case "crash at step 0" `Quick test_crash_at_zero;
          Alcotest.test_case "everyone crashes" `Quick test_all_crash;
          Alcotest.test_case "parasite from step 0" `Quick
            test_parasite_from_zero;
          Alcotest.test_case "quantum scheduler" `Quick test_quantum_scheduler;
          Alcotest.test_case "accounting" `Quick test_outcome_accounting;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "single job runs inline" `Quick
            test_pool_single_job_inline;
          Alcotest.test_case "exceptions propagate" `Quick
            test_pool_propagates_exception;
          Alcotest.test_case "shutdown rejects new work" `Quick
            test_pool_shutdown_rejects;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram buckets" `Quick test_metrics_histogram;
          Alcotest.test_case "histogram edge cases" `Quick
            test_metrics_histogram_edges;
          Alcotest.test_case "empty histogram pretty-prints" `Quick
            test_metrics_histogram_empty_pp;
          Alcotest.test_case "hist_merge monoid laws" `Quick
            test_metrics_hist_merge_laws;
          Alcotest.test_case "tally" `Quick test_metrics_tally;
          Alcotest.test_case "fault and starvation counters" `Quick
            test_metrics_fault_counters;
          Alcotest.test_case "grid canonical order" `Quick
            test_sweep_grid_canonical_order;
          Alcotest.test_case "metrics JSON file-stable" `Quick
            test_sweep_json_file_deterministic;
          Alcotest.test_case "a UTF-8 TM name is a JSON string" `Quick
            test_sweep_json_utf8_name;
          Alcotest.test_case "zoo sweep document pinned" `Quick
            test_sweep_json_pinned;
          Alcotest.test_case "every scheduler's sweep document pinned" `Quick
            test_sweep_scheds_pinned;
          Alcotest.test_case "every scheduler's trace pinned" `Quick
            test_trace_scheds_pinned;
          Alcotest.test_case "everyone crashes, pinned" `Quick
            test_all_crash_pinned;
          QCheck_alcotest.to_alcotest prop_metrics_one_pass;
          Alcotest.test_case "window edges" `Quick test_metrics_window_edges;
          Alcotest.test_case "history-free = runner on the pipeline grid"
            `Quick test_history_free_pipeline_grid;
        ] );
      ( "stats",
        [ Alcotest.test_case "summaries and percentiles" `Quick test_stats ]
      );
      ( "conformance",
        [ Alcotest.test_case "whole zoo conforms" `Quick test_conformance_zoo ]
      );
      ( "controlled execution",
        [
          Alcotest.test_case "everyone commits" `Quick
            test_controlled_everyone_commits;
          Alcotest.test_case "counter value" `Quick
            test_controlled_counter_value;
        ] );
      ( "pipeline allocation",
        [
          Alcotest.test_case "PRNG draws allocate nothing" `Quick
            test_prng_words;
          Alcotest.test_case "enumeration words per node" `Quick
            test_enumeration_words;
          Alcotest.test_case "monitor words per history" `Quick
            test_monitor_words;
          Alcotest.test_case "history-free words per step" `Quick
            test_history_free_words;
          Alcotest.test_case "runner words per step" `Quick test_runner_words;
          Alcotest.test_case "monitor words per event" `Quick
            test_monitor_event_words;
          Alcotest.test_case "monitor retains little" `Quick
            test_monitor_retains_little;
          Alcotest.test_case "untraced sweep retains no histories" `Quick
            test_sweep_retains_little;
          Alcotest.test_case "enumeration words per node, whole zoo" `Quick
            test_enumeration_words_zoo;
          Alcotest.test_case "runner alone words per event" `Quick
            test_runner_alone_words;
          QCheck_alcotest.to_alcotest prop_write_set;
        ] );
      ( "exhaustive sweep",
        [
          Alcotest.test_case "node counts" `Quick test_sweep_counts;
          Alcotest.test_case "copy-and-extend = replay preorder" `Quick
            test_copy_matches_replay_preorder;
          Alcotest.test_case "copies are independent" `Quick
            test_copies_are_independent;
          Alcotest.test_case "tl2 opaque at depth 7" `Slow test_sweep_tl2;
          Alcotest.test_case "tinystm opaque at depth 7" `Slow
            test_sweep_tinystm;
          Alcotest.test_case "tinystm-ext opaque at depth 7" `Slow
            test_sweep_tinystm_ext;
          Alcotest.test_case "swisstm opaque at depth 7" `Slow
            test_sweep_swisstm;
          Alcotest.test_case "fgp opaque at depth 7" `Slow test_sweep_fgp;
          Alcotest.test_case "dstm opaque at depth 7" `Slow test_sweep_dstm;
          Alcotest.test_case "quiescent opaque at depth 7" `Slow
            test_sweep_quiescent;
          Alcotest.test_case "invalid invocation raises" `Quick
            test_invalid_invocation_raises;
          Alcotest.test_case "blit overwrites every field" `Quick
            test_blit_overwrites_every_field;
        ] );
      ( "state graph",
        [
          Alcotest.test_case "shortest witnesses" `Quick
            test_graph_shortest_witnesses;
          Alcotest.test_case "depth bound" `Quick test_graph_depth_bound;
          Alcotest.test_case "DOT export" `Quick test_graph_dot;
          Alcotest.test_case "graph keys = run's states" `Quick
            test_graph_matches_run;
          Alcotest.test_case "fgp's key needs one process" `Quick
            test_graph_fgp_key_needs_one_process;
        ] );
    ]
