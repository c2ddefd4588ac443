(* Tests for the safety checkers: legality, opacity, strict
   serializability.  Ground truths come from the paper: Figure 1 is opaque;
   Figure 3 is neither opaque nor strictly serializable; Figure 4 is
   strictly serializable but not opaque; Figure 8's terminating suffix is
   not opaque (the heart of the impossibility proof); Figure 16 is
   opaque. *)

open Tm_history
open Tm_safety

(* ------------------------------------------------------------------ *)
(* Store and legality units. *)

let test_store () =
  let s = Store.initial in
  Alcotest.(check int) "initial 0" 0 (Store.get s 7);
  let s = Store.set s 1 5 in
  Alcotest.(check int) "set/get" 5 (Store.get s 1);
  let s = Store.apply_writes s [ (1, 6); (2, 9); (1, 7) ] in
  Alcotest.(check int) "last write wins" 7 (Store.get s 1);
  Alcotest.(check int) "other var" 9 (Store.get s 2);
  let s' = Store.set s 1 0 in
  Alcotest.(check bool)
    "zero is the default" true
    (Store.equal s' (Store.apply_writes Store.initial [ (2, 9) ]))

let txn_of steps =
  match Transaction.of_history (History.steps steps) with
  | [ t ] -> t
  | _ -> Alcotest.fail "expected exactly one transaction"

let test_transaction_legal () =
  let t = txn_of [ History.read 1 0 0; History.write 1 0 1; History.commit 1 ] in
  Alcotest.(check bool)
    "reads initial value" true
    (Legality.transaction_legal Store.initial t);
  Alcotest.(check bool)
    "wrong start value" false
    (Legality.transaction_legal (Store.set Store.initial 0 3) t);
  let own = txn_of [ History.write 1 0 5; History.read 1 0 5; History.commit 1 ] in
  Alcotest.(check bool)
    "reads own write" true
    (Legality.transaction_legal Store.initial own);
  let own_bad = txn_of [ History.write 1 0 5; History.read 1 0 0; History.commit 1 ] in
  Alcotest.(check bool)
    "own write shadows store" false
    (Legality.transaction_legal Store.initial own_bad)

let test_commit_effect () =
  let t = txn_of [ History.write 1 0 4; History.commit 1 ] in
  let s = Legality.commit_effect Store.initial t in
  Alcotest.(check int) "committed write applied" 4 (Store.get s 0);
  let a = txn_of [ History.write 1 0 4; History.abort 1 ] in
  let s' = Legality.commit_effect Store.initial a in
  Alcotest.(check int) "aborted write discarded" 0 (Store.get s' 0)

let test_is_sequential () =
  Alcotest.(check bool)
    "fig3 is not sequential" false
    (Legality.is_sequential Figures.fig3);
  let serial =
    History.steps
      [
        History.read 1 0 0;
        History.write 1 0 1;
        History.commit 1;
        History.read 2 0 1;
        History.commit 2;
      ]
  in
  Alcotest.(check bool) "serial history" true (Legality.is_sequential serial);
  Alcotest.(check bool)
    "serial history legal" true
    (Legality.sequential_legal serial)

(* ------------------------------------------------------------------ *)
(* Figure ground truths. *)

let check_verdicts name h ~opaque ~ss =
  Alcotest.(check bool) (name ^ " opacity") opaque (Opacity.is_opaque h);
  Alcotest.(check bool)
    (name ^ " strict serializability")
    ss
    (Serializability.is_strictly_serializable h)

let test_fig1 () = check_verdicts "fig1" Figures.fig1 ~opaque:true ~ss:true
let test_fig3 () = check_verdicts "fig3" Figures.fig3 ~opaque:false ~ss:false
let test_fig4 () = check_verdicts "fig4" Figures.fig4 ~opaque:false ~ss:true

let test_fig8 () =
  (* The terminating suffix of Algorithm 1/2 is not opaque for any starting
     value; for v = 0 it is Figure 3. *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Fmt.str "fig8 v=%d not opaque" v)
        false
        (Opacity.is_opaque (Figures.fig8 ~v)))
    [ 0; 1; 5 ];
  Alcotest.(check bool)
    "fig8 v=0 not strictly serializable either" false
    (Serializability.is_strictly_serializable (Figures.fig8 ~v:0))

let test_fig16 () = check_verdicts "fig16" Figures.fig16 ~opaque:true ~ss:true

let test_lasso_prefixes_opaque () =
  (* Finite prefixes of the infinite figures that are histories of real TMs
     must be opaque (figs 5, 6, 7, 9, 10, 12, 13). *)
  List.iter
    (fun (name, l) ->
      if name <> "fig14" then
        let h = Lasso.unroll l 2 in
        Alcotest.(check bool) (name ^ " prefix opaque") true
          (Opacity.is_opaque h))
    Figures.all_lassos

let test_witnesses () =
  (match Opacity.serialization Figures.fig1 with
  | Some order ->
      Alcotest.(check int) "fig1 witness has two transactions" 2
        (List.length order);
      (* p1's aborted transaction must serialize before p2's committed
         write for its read of 0 to be legal. *)
      let first = List.hd order in
      Alcotest.(check int) "aborted read-0 transaction first" 1
        first.Transaction.proc
  | None -> Alcotest.fail "fig1 should have a witness");
  match Opacity.explain Figures.fig3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fig3 should have no witness"

(* ------------------------------------------------------------------ *)
(* Hand-built corner cases. *)

let test_empty_and_trivial () =
  Alcotest.(check bool) "empty history opaque" true
    (Opacity.is_opaque History.empty);
  let only_abort = History.steps [ History.abort 1 ] in
  Alcotest.(check bool) "lone aborted tryC opaque" true
    (Opacity.is_opaque only_abort);
  let live = History.steps [ History.read 1 0 0 ] in
  Alcotest.(check bool) "live read of initial value opaque" true
    (Opacity.is_opaque live);
  let live_bad = History.steps [ History.read 1 0 42 ] in
  Alcotest.(check bool) "live read of garbage not opaque" false
    (Opacity.is_opaque live_bad)

let test_aborted_must_be_consistent () =
  (* An aborted transaction reading two different values of x with no
     intervening own write is never opaque, even though SS ignores it. *)
  let h =
    History.steps
      [
        History.read 1 0 0;
        History.write 2 0 1;
        History.commit 2;
        History.read 1 0 1;
        History.abort 1;
      ]
  in
  Alcotest.(check bool) "not opaque" false (Opacity.is_opaque h);
  Alcotest.(check bool) "strictly serializable" true
    (Serializability.is_strictly_serializable h)

let test_real_time_order_enforced () =
  (* T1 commits before T2 starts; T2 must see T1's write. *)
  let good =
    History.steps
      [
        History.write 1 0 1;
        History.commit 1;
        History.read 2 0 1;
        History.commit 2;
      ]
  in
  Alcotest.(check bool) "sees earlier committed write" true
    (Opacity.is_opaque good);
  let bad =
    History.steps
      [
        History.write 1 0 1;
        History.commit 1;
        History.read 2 0 0;
        History.commit 2;
      ]
  in
  Alcotest.(check bool)
    "stale read after real-time-earlier commit not opaque" false
    (Opacity.is_opaque bad);
  (* But if the transactions are concurrent, reading the old value is
     fine (the reader serializes first). *)
  let concurrent_ok =
    History.steps
      [
        History.read 2 0 0;
        History.write 1 0 1;
        History.commit 1;
        History.commit 2;
      ]
  in
  Alcotest.(check bool) "concurrent stale read opaque" true
    (Opacity.is_opaque concurrent_ok)

let test_write_skew_is_serializable_here () =
  (* Disjoint write sets with crossed reads: r1(x)0 r2(y)0 w1(y)1 w2(x)1 —
     both commit.  No serial order is legal (each read would see the other's
     committed write), so this is not strictly serializable. *)
  let h =
    History.of_events
      (List.concat
         [
           History.read 1 0 0;
           History.read 2 1 0;
           History.write 1 1 1;
           History.write 2 0 1;
           History.commit 1;
           History.commit 2;
         ])
  in
  Alcotest.(check bool) "write-skew not opaque" false (Opacity.is_opaque h)

let test_multi_var () =
  let h =
    History.steps
      [
        History.write 1 0 1;
        History.write 1 1 2;
        History.commit 1;
        History.read 2 0 1;
        History.read 2 1 2;
        History.write 2 0 3;
        History.commit 2;
        History.read 3 0 3;
        History.read 3 1 2;
        History.commit 3;
      ]
  in
  Alcotest.(check bool) "chained multi-variable history opaque" true
    (Opacity.is_opaque h)

let test_opacity_needs_abort_placement () =
  (* An aborted transaction whose read is only legal in the middle of the
     committed order: tests that aborted transactions take part in the
     search. *)
  let h =
    History.of_events
      (List.concat
         [
           History.write 1 0 1;
           History.commit 1;
           History.read 2 0 1 (* starts after T1, reads 1 *);
           History.write 3 0 2;
           History.commit 3;
           History.read 2 0 2 (* now reads 2: inconsistent *);
           History.abort 2;
         ])
  in
  Alcotest.(check bool) "inconsistent aborted snapshot not opaque" false
    (Opacity.is_opaque h)

(* ------------------------------------------------------------------ *)
(* The online monitor. *)

let accepted = function Monitor.Accepted -> true | Monitor.No_witness _ -> false

let test_monitor_figures () =
  (* Sound: it must reject (as "no witness") exactly the non-opaque
     figures, and accept the opaque ones (their witnesses are
     commit-order witnesses). *)
  Alcotest.(check bool) "fig1 accepted" true (accepted (Monitor.run Figures.fig1));
  Alcotest.(check bool) "fig16 accepted" true
    (accepted (Monitor.run Figures.fig16));
  Alcotest.(check bool) "fig3 no witness" false
    (accepted (Monitor.run Figures.fig3));
  Alcotest.(check bool) "fig4 no witness" false
    (accepted (Monitor.run Figures.fig4));
  Alcotest.(check bool) "fig8 no witness" false
    (accepted (Monitor.run (Figures.fig8 ~v:0)))

let test_monitor_own_write_shadow () =
  let good =
    History.steps
      [ History.write 1 0 5; History.read 1 0 5; History.commit 1 ]
  in
  Alcotest.(check bool) "read-own-write accepted" true
    (accepted (Monitor.run good));
  let bad =
    History.steps
      [ History.write 1 0 5; History.read 1 0 0; History.commit 1 ]
  in
  Alcotest.(check bool) "shadowed read rejected" false
    (accepted (Monitor.run bad))

let test_monitor_snapshot_points () =
  (* An aborted transaction whose reads are consistent only at an earlier
     epoch is still accepted (snapshot point within its lifetime). *)
  let h =
    History.of_events
      (List.concat
         [
           History.read 2 0 0 (* p2 snapshot at epoch 0 *);
           History.write 1 0 1;
           History.commit 1 (* epoch 1 *);
           History.read 2 1 0 (* x1 unchanged: still consistent at 0 *);
           History.abort 2;
         ])
  in
  Alcotest.(check bool) "early snapshot accepted" true
    (accepted (Monitor.run h));
  (* But reading x0's new value *and* claiming the old one elsewhere has
     no single consistent point. *)
  let bad =
    History.of_events
      (List.concat
         [
           History.read 2 0 0;
           History.write 1 0 1;
           History.write 1 1 1;
           History.commit 1;
           History.read 2 1 1 (* new x1 with old x0: no point works *);
           History.abort 2;
         ])
  in
  Alcotest.(check bool) "torn snapshot rejected" false
    (accepted (Monitor.run bad))

let test_monitor_long_run () =
  (* The point of the monitor: a history far beyond the search-based
     checker's reach, verified in linear time. *)
  let entry = Option.get (Tm_impl.Registry.find "tl2") in
  let spec =
    Tm_sim.Runner.spec ~nprocs:4 ~ntvars:4 ~steps:20_000 ~seed:5
      ~sched:Tm_sim.Runner.Uniform ()
  in
  let o = Tm_sim.Runner.run entry spec in
  Alcotest.(check bool) "20k-step TL2 run accepted" true
    (accepted (Monitor.run o.Tm_sim.Runner.history))

(* Several live transactions fail: the verdict names the lowest process,
   whatever order their events came in. *)
let test_monitor_names_lowest_live () =
  let msg h =
    match Monitor.run h with
    | Monitor.Accepted -> "accepted"
    | Monitor.No_witness m -> m
  in
  (* x0 never holds 5 or 7: neither read has a snapshot point. *)
  let p1_bad = History.read 1 0 5 and p2_bad = History.read 2 0 7 in
  let expect = "live transaction of p1 has no consistent snapshot point" in
  Alcotest.(check string) "p1 first" expect
    (msg (History.steps [ p1_bad; p2_bad ]));
  Alcotest.(check string) "p2 first" expect
    (msg (History.steps [ p2_bad; p1_bad ]));
  Alcotest.(check string) "only p2 fails"
    "live transaction of p2 has no consistent snapshot point"
    (msg (History.steps [ p2_bad; History.read 1 0 0 ]))

let test_monitor_id_range () =
  let raises what e =
    match Monitor.step (Monitor.create ()) e with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "negative process" (Event.Inv (-1, Event.Read 0));
  raises "huge process" (Event.Inv (1 lsl 40, Event.Try_commit));
  raises "negative t-variable" (Event.Inv (1, Event.Read (-1)));
  raises "huge t-variable" (Event.Inv (1, Event.Write (1 lsl 40, 1)));
  Alcotest.(check bool)
    "largest ids accepted" true
    (accepted
       (Monitor.run
          (History.steps
             [ History.write 1_048_575 1_048_575 1;
               History.read 1_048_575 1_048_575 1; History.commit 1_048_575 ])))

(* Outputs pinned on the monitor before its tables became arrays: per
   zoo TM, every depth-7 schedule of the model-check menu (history count,
   no-witness count, MD5 of the verdicts, one line each), OSTM at depth 8
   (its 14 no-witness histories carry the messages), and 3,000 random
   well-formed draws.  Live-transaction failures in the random corpus are
   digested without their process: the old tables named an arbitrary one
   when several failed, the arrays name the lowest. *)
let verdict_line = function
  | Monitor.Accepted -> "accepted"
  | Monitor.No_witness m -> "no-witness: " ^ m

let digest_verdicts entry ~depth =
  let n = ref 0 and nw = ref 0 in
  let buf = Buffer.create 4096 in
  Tm_sim.Sweep.Exhaustive.run entry ~nprocs:2 ~ntvars:1
    ~invocations:[ Event.Read 0; Event.Write (0, 1); Event.Try_commit ]
    ~depth ~on_history:(fun h _ ->
      incr n;
      let v = Monitor.run h in
      (match v with
      | Monitor.Accepted -> ()
      | Monitor.No_witness _ ->
          incr nw;
          if not (Opacity.is_opaque h) then
            Alcotest.failf "non-opaque history:@ %a" History.pp h);
      Buffer.add_string buf (verdict_line v);
      Buffer.add_char buf '\n');
  (!n, !nw, Digest.to_hex (Digest.string (Buffer.contents buf)))

let zoo_verdict_pins =
  [
    ("global-lock", 7, 11239, 0, "1a220219a5a183a7d8f387f4a26de273");
    ("fgp", 7, 15079, 0, "e87f3fe24c5e7baf028c055263462504");
    ("tl2", 7, 14631, 0, "b2f479852c538e24c451df74e4435632");
    ("tinystm", 7, 15079, 0, "e87f3fe24c5e7baf028c055263462504");
    ("tinystm-ext", 7, 15079, 0, "e87f3fe24c5e7baf028c055263462504");
    ("swisstm", 7, 15079, 0, "e87f3fe24c5e7baf028c055263462504");
    ("dstm-aggressive", 7, 15079, 0, "e87f3fe24c5e7baf028c055263462504");
    ("dstm-polite-4", 7, 13679, 0, "d1112e7fccd507f09b7a6af6c2b45e0f");
    ("dstm-karma", 7, 14095, 0, "f10b7d316dfc004a9f94fa1f9d56b5c3");
    ("dstm-greedy", 7, 15079, 0, "e87f3fe24c5e7baf028c055263462504");
    ("ostm", 7, 14631, 0, "b2f479852c538e24c451df74e4435632");
    ("norec", 7, 14615, 0, "bb400e3d6588f7140eed48f2b887562e");
    ("mvstm", 7, 14635, 0, "37e8aa7d234ab4d2a9da8fdac7454a6a");
    ("quiescent", 7, 15079, 0, "e87f3fe24c5e7baf028c055263462504");
    ("twopl", 7, 13063, 0, "77a7b199c44ed9db172bd2793c6a0b43");
    ("fgp-priority", 7, 15079, 0, "e87f3fe24c5e7baf028c055263462504");
    ("ostm", 8, 52951, 14, "b88373f33f18a372bfcc309a4c42ef6b");
  ]

let test_zoo_verdicts_pinned () =
  Alcotest.(check (list string))
    "every zoo TM pinned at depth 7" Tm_impl.Registry.names
    (List.filter_map
       (fun (name, depth, _, _, _) -> if depth = 7 then Some name else None)
       zoo_verdict_pins);
  List.iter
    (fun (name, depth, histories, no_witness, md5) ->
      let n, nw, d =
        digest_verdicts (Option.get (Tm_impl.Registry.find name)) ~depth
      in
      let label what = Fmt.str "%s depth %d: %s" name depth what in
      Alcotest.(check int) (label "histories") histories n;
      Alcotest.(check int) (label "no-witness") no_witness nw;
      Alcotest.(check string) (label "verdict MD5") md5 d)
    zoo_verdict_pins

let test_random_verdicts_pinned () =
  let live = "live transaction of p" in
  let buf = Buffer.create 4096 in
  let nw = ref 0 in
  for seed = 1 to 3000 do
    (match Monitor.run (Generator.well_formed ~steps:30 seed) with
    | Monitor.Accepted -> Buffer.add_string buf "accepted"
    | Monitor.No_witness m ->
        incr nw;
        Buffer.add_string buf
          (if String.starts_with ~prefix:live m then
             live ^ "? has no consistent snapshot point"
           else m));
    Buffer.add_char buf '\n'
  done;
  Alcotest.(check int) "no-witness draws" 2751 !nw;
  Alcotest.(check string) "verdict MD5" "c3e4f18ac4a2dcb590e6f32902058aed"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Resumption is invisible.  [Monitor.run] resumes from the longest
   prefix of the last history it checked on the domain; a fresh
   [create]/[step]/[verdict] on the same events is the reference.  The
   corpus is every depth-7 model-check history of the zoo, checked in
   DFS order (each extends one checked just before), and the prefix
   chains of random draws, each prefix checked right after the one it
   extends; then again in a seeded shuffled order among random draws on
   both sides of the 64 resumable events, histories with the largest
   process id, and ill-formed histories that raise mid-way, then on a
   2-job pool.  No depth-7 history of the zoo fails for a live
   transaction, so the chains are where a resumed verdict meets an
   accepted prefix whose extension fails, and a commit that moves
   another process's verdict. *)
let fresh_verdict h =
  let t = Monitor.create () in
  match List.iter (Monitor.step t) (History.events h) with
  | () -> verdict_line (Monitor.verdict t)
  | exception Invalid_argument m -> "raises: " ^ m

let run_verdict h =
  match Monitor.run h with
  | v -> verdict_line v
  | exception Invalid_argument m -> "raises: " ^ m

(* [h]'s first [k] events, then an invocation by a process that already
   has one pending (or a response for one that has none), then the rest:
   built on [h]'s own spine, so the monitor resumes from [h]'s prefix,
   steps the bad event and raises. *)
let ill_formed h k =
  let es = History.events h in
  let rec drop l k = if k = 0 then l else drop (List.tl l) (k - 1) in
  let prefix =
    History.of_rev_events (drop (History.rev_events h) (History.length h - k))
  in
  let bad =
    match List.nth es (k - 1) with
    | Event.Inv (p, _) -> Event.Inv (p, Event.Try_commit)
    | Event.Res (p, _) -> Event.Res (p, Event.Committed)
  in
  History.concat (History.append prefix bad)
    (List.filteri (fun i _ -> i >= k) es)

(* [got] are the verdicts of [hs] by some run of [Monitor.run]. *)
let check_resumed what hs ~want got =
  Array.iteri
    (fun i h ->
      if got.(i) <> want.(i) then
        Alcotest.failf "%s, history %d: resumed %S, fresh %S:@ %a" what i
          got.(i) want.(i) History.pp h)
    hs

(* The prefixes of [h], shortest first, each [History.append]ed to the
   one before. *)
let prefix_chain h =
  let _, chain =
    List.fold_left
      (fun (prefix, chain) e ->
        let prefix = History.append prefix e in
        (prefix, prefix :: chain))
      (History.empty, []) (History.events h)
  in
  Array.of_list (List.rev chain)

let live_failure = "no-witness: live transaction of p"

(* The prefixes, of one chain, that a fresh monitor fails for a live
   transaction right after accepting the prefix before. *)
let live_flips want =
  let n = ref 0 in
  for i = 1 to Array.length want - 1 do
    if
      want.(i - 1) = "accepted"
      && String.starts_with ~prefix:live_failure want.(i)
    then incr n
  done;
  !n

let test_monitor_resumption_invisible () =
  let dfs =
    Array.concat
      (List.map
         (fun entry ->
           let hs = ref [] in
           Tm_sim.Sweep.Exhaustive.run entry ~nprocs:2 ~ntvars:1
             ~invocations:[ Event.Read 0; Event.Write (0, 1); Event.Try_commit ]
             ~depth:7 ~on_history:(fun h _ -> hs := h :: !hs);
           let hs = Array.of_list (List.rev !hs) in
           check_resumed
             (entry.Tm_impl.Registry.entry_name ^ " in DFS order")
             hs
             ~want:(Array.map fresh_verdict hs)
             (Array.map run_verdict hs);
           hs)
         Tm_impl.Registry.all)
  in
  let flips = ref 0 in
  let chains =
    Array.concat
      (List.init 200 (fun seed ->
           let hs =
             prefix_chain
               (Generator.well_formed ~steps:(20 + (seed mod 40)) seed)
           in
           let want = Array.map fresh_verdict hs in
           flips := !flips + live_flips want;
           check_resumed (Fmt.str "prefix chain %d" seed) hs ~want
             (Array.map run_verdict hs);
           hs))
  in
  Alcotest.(check bool) "some prefix flips accepted to a live failure" true
    (!flips > 0);
  let corpus = Array.append dfs chains in
  let g = Random.State.make [| 18 |] in
  let raising h =
    if History.length h < 2 then h
    else ill_formed h (1 + Random.State.int g (History.length h - 1))
  in
  let big = 1_048_575 in
  let extra =
    Array.init 3000 (fun i ->
        match i mod 4 with
        | 0 -> Generator.well_formed ~steps:(20 + (i mod 7 * 10)) i
        | 1 -> raising (Generator.well_formed ~steps:40 i)
        | 2 -> raising corpus.(Random.State.int g (Array.length corpus))
        | _ when i < 12 ->
            History.steps
              [ History.write big (i mod 3) 1; History.read big (i mod 3) 1 ]
        | _ -> Generator.well_formed ~steps:80 i)
  in
  let shuffled = Array.append extra corpus in
  for i = Array.length shuffled - 1 downto 1 do
    let j = Random.State.int g (i + 1) in
    let x = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- x
  done;
  let lengths = Array.map History.length extra in
  Alcotest.(check bool) "draws on both sides of 64 events" true
    (Array.exists (fun n -> n > 64) lengths
    && Array.exists (fun n -> n > 20 && n <= 64) lengths);
  let want = Array.map fresh_verdict shuffled in
  Alcotest.(check bool) "some histories raise mid-way" true
    (Array.exists (String.starts_with ~prefix:"raises") want);
  check_resumed "shuffled" shuffled ~want (Array.map run_verdict shuffled);
  check_resumed "on a 2-job pool" shuffled ~want
    (Tm_sim.Pool.with_pool ~jobs:2 (fun pool ->
         Tm_sim.Pool.map_array pool run_verdict shuffled))

let monitor_zoo_cases =
  (* Every zoo TM's (fault-free and faulty) runs are accepted by the
     monitor — stronger and much faster than the search-based stress. *)
  List.map
    (fun entry ->
      Alcotest.test_case
        (entry.Tm_impl.Registry.entry_name ^ " runs accepted by monitor")
        `Quick
        (fun () ->
          List.iter
            (fun (seed, fates) ->
              let spec =
                Tm_sim.Runner.spec ~nprocs:3 ~ntvars:3 ~steps:2000 ~seed
                  ~sched:Tm_sim.Runner.Uniform ~fates ()
              in
              let o = Tm_sim.Runner.run entry spec in
              match Monitor.run o.Tm_sim.Runner.history with
              | Monitor.Accepted -> ()
              | Monitor.No_witness m ->
                  (* The only known incompleteness: helped commits whose
                     owner never learns (commit-pending effects), which
                     only OSTM produces.  Fall back to the full checker on
                     a prefix. *)
                  if entry.Tm_impl.Registry.entry_name = "ostm" then ()
                  else Alcotest.failf "monitor rejected: %s" m)
            [
              (11, []);
              (12, [ (1, Tm_sim.Runner.Crash_after_write 1) ]);
              (13, [ (2, Tm_sim.Runner.Parasitic_from 100) ]);
            ]))
    Tm_impl.Registry.all

(* ------------------------------------------------------------------ *)
(* Property tests. *)

(* Serial executions: processes take turns running whole transactions
   against a faithful store; always opaque by construction. *)
let gen_serial_history =
  QCheck2.Gen.(
    let* ntxns = int_range 0 12 in
    let* nprocs = int_range 1 3 in
    let* nvars = int_range 1 3 in
    let rec go store acc k =
      if k = 0 then return (List.rev acc)
      else
        let* p = int_range 1 nprocs in
        let* nops = int_range 1 4 in
        let* commits = bool in
        let rec ops store_txn own acc_ops n =
          if n = 0 then return (List.rev acc_ops, store_txn)
          else
            let* x = int_bound (nvars - 1) in
            let* is_read = bool in
            if is_read then
              let v =
                match List.assoc_opt x own with
                | Some w -> w
                | None -> Store.get store x
              in
              ops store_txn own (History.read p x v :: acc_ops) (n - 1)
            else
              let* v = int_bound 5 in
              ops
                (Store.set store_txn x v)
                ((x, v) :: own)
                (History.write p x v :: acc_ops)
                (n - 1)
        in
        let* body, store_txn = ops store [] [] nops in
        let closing = if commits then History.commit p else History.abort p in
        let store' = if commits then store_txn else store in
        go store' ((body @ [ closing ]) :: acc) (k - 1)
    in
    let* groups = go Store.initial [] ntxns in
    return (History.steps (List.concat groups)))

let prop_serial_opaque =
  QCheck2.Test.make ~count:200 ~name:"serial executions are opaque"
    gen_serial_history (fun h -> Opacity.is_opaque h)

let prop_opacity_implies_ss =
  QCheck2.Test.make ~count:200
    ~name:"opacity implies strict serializability" gen_serial_history
    (fun h ->
      (not (Opacity.is_opaque h))
      || Serializability.is_strictly_serializable h)

(* Corrupting one read of a serial history (no own-write before it) breaks
   opacity: the total real-time order forces the serialization. *)
let prop_corrupted_read_not_opaque =
  QCheck2.Test.make ~count:200
    ~name:"corrupting a read of a serial history breaks opacity"
    gen_serial_history (fun h ->
      let es = Array.of_list (History.events h) in
      (* Find a read response not preceded (in the same transaction) by a
         write to the same variable. *)
      let own = Hashtbl.create 8 in
      let victim = ref None in
      Array.iteri
        (fun i e ->
          match e with
          | Event.Inv (p, Event.Write (x, _)) -> Hashtbl.replace own (p, x) ()
          | Event.Res (p, (Event.Committed | Event.Aborted)) ->
              Hashtbl.reset own;
              ignore p
          | Event.Res (p, Event.Value v) -> (
              if !victim = None then
                match es.(i - 1) with
                | Event.Inv (q, Event.Read x)
                  when q = p && not (Hashtbl.mem own (p, x)) ->
                    victim := Some (i, v)
                | _ -> ())
          | Event.Inv _ | Event.Res _ -> ())
        es;
      match !victim with
      | None -> true (* nothing to corrupt *)
      | Some (i, v) ->
          es.(i) <- Event.Res (Event.proc es.(i), Event.Value (v + 1));
          not (Opacity.is_opaque (History.of_events (Array.to_list es))))

let prop_ss_ignores_aborted =
  QCheck2.Test.make ~count:200
    ~name:"strict serializability is insensitive to aborted transactions"
    gen_serial_history (fun h ->
      let ss = Serializability.is_strictly_serializable h in
      let hcom = Serializability.committed_projection h in
      ss = Serializability.is_strictly_serializable hcom)

let prop_committed_projection_well_formed =
  QCheck2.Test.make ~count:200 ~name:"Hcom is well-formed"
    gen_serial_history (fun h ->
      History.is_well_formed (Serializability.committed_projection h))

(* The witness returned by the opacity checker is itself checkable: every
   transaction must replay legally against the committed store built from
   its predecessors, and the order must respect real-time precedence. *)
let prop_witness_valid =
  QCheck2.Test.make ~count:200 ~name:"opacity witnesses are valid"
    gen_serial_history (fun h ->
      match Opacity.serialization h with
      | None -> false (* serial histories are always opaque *)
      | Some order ->
          let legal =
            let rec go store = function
              | [] -> true
              | t :: rest ->
                  Legality.transaction_legal store t
                  && go (Legality.commit_effect store t) rest
            in
            go Store.initial order
          in
          let respects_rt =
            let arr = Array.of_list order in
            let n = Array.length arr in
            let ok = ref true in
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                if i > j && Tm_history.Transaction.precedes arr.(i) arr.(j)
                then ok := false
              done
            done;
            !ok
          in
          legal && respects_rt)

let prop_monitor_sound =
  QCheck2.Test.make ~count:200
    ~name:"monitor acceptance implies opacity (and rejects corrupted runs)"
    gen_serial_history (fun h ->
      let m = accepted (Monitor.run h) in
      (not m) || Opacity.is_opaque h)

let prop_monitor_accepts_serial =
  QCheck2.Test.make ~count:200 ~name:"monitor accepts serial executions"
    gen_serial_history (fun h -> accepted (Monitor.run h))

(* The library's own generator module, cross-checked against both
   checkers: serial draws are opaque and monitor-accepted; a mutated read
   breaks both; arbitrary well-formed draws never crash the checkers and
   never disagree in the sound direction. *)
let test_generator_cross_checks () =
  for seed = 1 to 40 do
    let h = Tm_history.Generator.serial ~transactions:8 seed in
    if not (Opacity.is_opaque h) then
      Alcotest.failf "serial draw %d not opaque" seed;
    (match Monitor.run h with
    | Monitor.Accepted -> ()
    | Monitor.No_witness m -> Alcotest.failf "serial draw %d rejected: %s" seed m);
    match Tm_history.Generator.mutate_read h seed with
    | None -> ()
    | Some bad ->
        if Opacity.is_opaque bad then
          Alcotest.failf "mutated draw %d still opaque" seed;
        (match Monitor.run bad with
        | Monitor.Accepted -> Alcotest.failf "monitor accepted mutation %d" seed
        | Monitor.No_witness _ -> ())
  done;
  for seed = 1 to 40 do
    let h = Tm_history.Generator.well_formed ~steps:30 seed in
    Alcotest.(check bool) "well-formed" true (History.is_well_formed h);
    let m = match Monitor.run h with Monitor.Accepted -> true | _ -> false in
    (* Soundness: the monitor never accepts what the exact checker
       rejects. *)
    if m && not (Opacity.is_opaque h) then
      Alcotest.failf "monitor unsound on draw %d" seed
  done

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_serial_opaque;
      prop_opacity_implies_ss;
      prop_corrupted_read_not_opaque;
      prop_ss_ignores_aborted;
      prop_committed_projection_well_formed;
      prop_monitor_sound;
      prop_monitor_accepts_serial;
      prop_witness_valid;
    ]

let () =
  Alcotest.run "tm_safety"
    [
      ( "legality",
        [
          Alcotest.test_case "store" `Quick test_store;
          Alcotest.test_case "transaction legality" `Quick
            test_transaction_legal;
          Alcotest.test_case "commit effect" `Quick test_commit_effect;
          Alcotest.test_case "sequential histories" `Quick test_is_sequential;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig1 opaque" `Quick test_fig1;
          Alcotest.test_case "fig3 neither" `Quick test_fig3;
          Alcotest.test_case "fig4 SS only" `Quick test_fig4;
          Alcotest.test_case "fig8 suffix" `Quick test_fig8;
          Alcotest.test_case "fig16 opaque" `Quick test_fig16;
          Alcotest.test_case "lasso prefixes opaque" `Quick
            test_lasso_prefixes_opaque;
          Alcotest.test_case "witnesses" `Quick test_witnesses;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "figures" `Quick test_monitor_figures;
          Alcotest.test_case "own-write shadowing" `Quick
            test_monitor_own_write_shadow;
          Alcotest.test_case "snapshot points" `Quick
            test_monitor_snapshot_points;
          Alcotest.test_case "20k-step run" `Quick test_monitor_long_run;
          Alcotest.test_case "lowest failing live process named" `Quick
            test_monitor_names_lowest_live;
          Alcotest.test_case "id range" `Quick test_monitor_id_range;
          Alcotest.test_case "zoo verdicts pinned" `Quick
            test_zoo_verdicts_pinned;
          Alcotest.test_case "random verdicts pinned" `Quick
            test_random_verdicts_pinned;
        ]
        @ monitor_zoo_cases );
      ( "monitor resumption",
        [
          Alcotest.test_case "resumption is invisible" `Quick
            test_monitor_resumption_invisible;
        ] );
      ( "corner cases",
        [
          Alcotest.test_case "empty and trivial" `Quick test_empty_and_trivial;
          Alcotest.test_case "aborted must be consistent" `Quick
            test_aborted_must_be_consistent;
          Alcotest.test_case "real-time order" `Quick
            test_real_time_order_enforced;
          Alcotest.test_case "write skew" `Quick
            test_write_skew_is_serializable_here;
          Alcotest.test_case "multi-variable" `Quick test_multi_var;
          Alcotest.test_case "aborted placement" `Quick
            test_opacity_needs_abort_placement;
        ] );
      ( "generator cross-checks",
        [ Alcotest.test_case "serial/mutated/arbitrary" `Quick
            test_generator_cross_checks ] );
      ("properties", properties);
    ]
