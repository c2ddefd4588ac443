(* Tests for the impossibility-proof adversary (Theorem 1, Lemma 1).

   Against every TM in the zoo, the adversary must win: either the TM
   blocks (global lock — it escapes the theorem by failing responsiveness),
   or p1 starves while p2 commits round after round.  If a TM ever lets p1
   commit, its history must be non-opaque — checked with a deliberately
   bogus always-commit TM. *)

open Tm_history
module Reg = Tm_impl.Registry

(* ------------------------------------------------------------------ *)
(* A deliberately unsafe TM: never aborts, never blocks, always commits.
   The adversary must defeat it by making it produce a non-opaque
   history — exactly the paper's argument that a terminating execution of
   Algorithm 1 ends in Figure 8's forbidden suffix. *)
module Bogus : Tm_impl.Tm_intf.S = struct
  type t = {
    mail : Tm_impl.Tm_intf.Mailbox.t;
    store : int array;
    cfg : Tm_impl.Tm_intf.config;
  }

  include Tm_impl.Tm_intf.Make (struct
    type nonrec t = t

    let name = "bogus-always-commit"
    let describe = "unsafe strawman: applies writes immediately, always commits"

    let create cfg =
      {
        mail = Tm_impl.Tm_intf.Mailbox.create cfg;
        store = Array.make cfg.ntvars 0;
        cfg;
      }

    let blit t ~into =
      Tm_impl.Tm_intf.Mailbox.blit t.mail ~into:into.mail;
      Tm_impl.Tm_intf.blit_array t.store ~into:into.store

    let cfg t = t.cfg
    let mail t = t.mail

    let step t _ inv =
      Some
        (match inv with
        | Event.Read x -> Event.Value t.store.(x)
        | Event.Write (x, v) ->
            t.store.(x) <- v;
            Event.Ok_written
        | Event.Try_commit -> Event.Committed)
  end)
end

let bogus_entry =
  {
    Reg.entry_name = "bogus-always-commit";
    entry_describe = "unsafe strawman";
    impl = (module Bogus);
    responsive = true;
  }

(* ------------------------------------------------------------------ *)
(* Theorem 1 against the zoo. *)

let algorithms =
  [ ("algorithm-1", Tm_adversary.Adversary.Algorithm_1);
    ("algorithm-2", Tm_adversary.Adversary.Algorithm_2) ]

let test_starves_or_blocks entry alg () =
  let r = Tm_adversary.Adversary.run ~rounds:40 entry alg in
  Alcotest.(check int)
    (entry.Reg.entry_name ^ " p1 commits zero times")
    0 r.Tm_adversary.Adversary.victim_commits;
  match Tm_adversary.Adversary.verdict r with
  | Blocked ->
      (* Only the blocking TMs may escape this way. *)
      Alcotest.(check bool)
        (entry.Reg.entry_name ^ " may block")
        false entry.Reg.responsive
  | Winner_starved ->
      (* Only TMs without global progress starve the winner: the
         quiescent strawman (Figures 9 and 12), and the priority variant
         of Fgp when the suspended victim happens to be the top-priority
         process — exactly the cost of a priority property that Theorem 1
         predicts.  Their contract rows say so ([winner_starves]). *)
      Alcotest.(check bool)
        (entry.Reg.entry_name ^ " may starve the winner")
        true
        (Option.get (Tm_impl.Contract.find entry.Reg.entry_name))
          .winner_starves
  | Victim_committed ->
      Alcotest.failf "%s let p1 commit" entry.Reg.entry_name
  | Victim_starves ->
      Alcotest.(check bool)
        (entry.Reg.entry_name ^ " p2 commits every round")
        true
        (r.Tm_adversary.Adversary.winner_commits >= 40);
      (* The suffix shape of Figures 10/13: p1 is aborted over and over,
         so it is correct and starving. *)
      Alcotest.(check bool)
        (entry.Reg.entry_name ^ " p1 aborted repeatedly")
        true
        (r.Tm_adversary.Adversary.victim_aborts >= 39)

let zoo_adversary_tests =
  List.concat_map
    (fun entry ->
      List.map
        (fun (alg_name, alg) ->
          Alcotest.test_case
            (Fmt.str "%s vs %s" entry.Reg.entry_name alg_name)
            `Quick
            (test_starves_or_blocks entry alg))
        algorithms)
    Reg.all

(* Adversary histories are opaque for every real TM (small round count so
   the checker search stays instantaneous). *)
let test_adversary_history_opaque entry alg () =
  let r = Tm_adversary.Adversary.run ~rounds:6 entry alg in
  if not r.Tm_adversary.Adversary.blocked then
    Alcotest.(check bool)
      (entry.Reg.entry_name ^ " adversary history opaque")
      true
      (Tm_safety.Opacity.is_opaque r.Tm_adversary.Adversary.history)

let zoo_opacity_tests =
  List.concat_map
    (fun entry ->
      List.map
        (fun (alg_name, alg) ->
          Alcotest.test_case
            (Fmt.str "%s vs %s: opaque" entry.Reg.entry_name alg_name)
            `Quick
            (test_adversary_history_opaque entry alg))
        algorithms)
    Reg.all

(* ------------------------------------------------------------------ *)
(* The contrapositive: an always-commit TM terminates the game, and the
   resulting history is not opaque (it ends in Figure 8's suffix). *)

let test_bogus_tm_defeated alg () =
  let r = Tm_adversary.Adversary.run ~rounds:40 bogus_entry alg in
  Alcotest.(check bool) "game terminates" true
    (Tm_adversary.Adversary.verdict r = Victim_committed);
  Alcotest.(check bool) "history is NOT opaque" false
    (Tm_safety.Opacity.is_opaque r.Tm_adversary.Adversary.history);
  Alcotest.(check bool) "history is not strictly serializable either" false
    (Tm_safety.Serializability.is_strictly_serializable
       r.Tm_adversary.Adversary.history)

(* ------------------------------------------------------------------ *)
(* The remaining proof-case figures, realized by the quiescent strawman:
   Algorithm 1 yields the Figure 9 suffix (p1 "crashes" after one read, p2
   is aborted forever), Algorithm 2 the Figure 12 suffix (p1 reads forever
   without ever being aborted or invoking tryC — a parasitic process —
   while p2 is aborted forever). *)

let quiescent = Option.get (Reg.find "quiescent")

let test_fig9_realized () =
  let r =
    Tm_adversary.Adversary.run ~patience:100 ~rounds:10 quiescent
      Tm_adversary.Adversary.Algorithm_1
  in
  let h = r.Tm_adversary.Adversary.history in
  Alcotest.(check bool) "winner starved" true
    (Tm_adversary.Adversary.verdict r = Winner_starved);
  Alcotest.(check int) "p2 never commits" 0
    r.Tm_adversary.Adversary.winner_commits;
  (* p1 read once and was never heard from again. *)
  Alcotest.(check int) "p1 has exactly one completed read" 2
    (History.event_count h 1);
  Alcotest.(check bool) "p2 aborted over and over" true
    (History.abort_count h 2 >= 100);
  Alcotest.(check bool) "history is opaque" true (Tm_safety.Opacity.is_opaque h)

let test_fig12_realized () =
  let r =
    Tm_adversary.Adversary.run ~patience:40 ~rounds:3 quiescent
      Tm_adversary.Adversary.Algorithm_2
  in
  let h = r.Tm_adversary.Adversary.history in
  Alcotest.(check bool) "winner starved" true
    (Tm_adversary.Adversary.verdict r = Winner_starved);
  (* The parasitic shape: p1 keeps executing reads, is never aborted, and
     never invokes tryC. *)
  Alcotest.(check bool) "p1 executes many operations" true
    (History.event_count h 1 > 50);
  Alcotest.(check int) "p1 is never aborted" 0 (History.abort_count h 1);
  Alcotest.(check int) "p1 never attempts to commit" 0
    (History.try_commit_count h 1);
  Alcotest.(check bool) "p2 aborted over and over" true
    (History.abort_count h 2 >= 40);
  Alcotest.(check int) "p2 never commits" 0 (History.commit_count h 2)

(* ------------------------------------------------------------------ *)
(* Lemma 1 / Theorem 2: the n-process generalization. *)

let test_general nprocs tm_name () =
  let entry = Option.get (Reg.find tm_name) in
  let r = Tm_adversary.Adversary.General.run ~rounds:20 ~nprocs entry in
  Alcotest.(check bool) "not blocked" false r.Tm_adversary.Adversary.General.blocked;
  Alcotest.(check bool)
    "no victim ever commits" false
    r.Tm_adversary.Adversary.General.any_victim_committed;
  Alcotest.(check bool)
    "winner commits every round" true
    (r.Tm_adversary.Adversary.General.commits.(nprocs) >= 20);
  (* At least two processes are correct (every victim keeps aborting), yet
     at most one makes progress — the Lemma-1 situation. *)
  for p = 1 to nprocs - 1 do
    Alcotest.(check int)
      (Fmt.str "victim p%d never commits" p)
      0
      r.Tm_adversary.Adversary.General.commits.(p);
    Alcotest.(check bool)
      (Fmt.str "victim p%d aborted repeatedly" p)
      true
      (r.Tm_adversary.Adversary.General.aborts.(p) >= 19)
  done

let general_tests =
  List.concat_map
    (fun nprocs ->
      List.map
        (fun tm_name ->
          Alcotest.test_case
            (Fmt.str "lemma-1 n=%d vs %s" nprocs tm_name)
            `Quick (test_general nprocs tm_name))
        [ "fgp"; "tl2"; "ostm"; "dstm-aggressive" ])
    [ 2; 3; 5; 8 ]

let test_general_history_opaque () =
  let entry = Option.get (Reg.find "fgp") in
  let r = Tm_adversary.Adversary.General.run ~rounds:4 ~nprocs:3 entry in
  Alcotest.(check bool) "n-process adversary history opaque" true
    (Tm_safety.Opacity.is_opaque r.Tm_adversary.Adversary.General.history)

(* ------------------------------------------------------------------ *)
(* The adversary histories realize the Figure 1 scenario: its first round
   against Fgp reproduces Figure 1's prefix exactly (modulo values). *)

let test_fig1_realized () =
  let entry = Option.get (Reg.find "fgp") in
  let r =
    Tm_adversary.Adversary.run ~rounds:1 entry Tm_adversary.Adversary.Algorithm_1
  in
  let h = r.Tm_adversary.Adversary.history in
  (* Figure 1 prefix: p1 reads 0; p2 reads 0, writes 1, commits; p1's write
     attempt is aborted. *)
  let expected =
    History.steps
      [
        History.read 1 0 0;
        History.read 2 0 0;
        History.write 2 0 1;
        History.commit 2;
        History.write_aborted 1 0 1;
      ]
  in
  let prefix n hh =
    History.of_events
      (List.filteri (fun i _ -> i < n) (History.events hh))
  in
  Alcotest.(check bool)
    "first round against Fgp is exactly Figure 1" true
    (History.equal (prefix (History.length expected) h) expected)

let () =
  Alcotest.run "tm_adversary"
    [
      ("theorem 1 vs the zoo", zoo_adversary_tests);
      ("adversary histories are opaque", zoo_opacity_tests);
      ( "contrapositive",
        List.map
          (fun (alg_name, alg) ->
            Alcotest.test_case
              ("bogus TM defeated by " ^ alg_name)
              `Quick (test_bogus_tm_defeated alg))
          algorithms );
      ( "lemma 1 generalization",
        general_tests
        @ [
            Alcotest.test_case "n-process history opaque" `Quick
              test_general_history_opaque;
          ] );
      ( "figure 1",
        [ Alcotest.test_case "realized by round 1" `Quick test_fig1_realized ]
      );
      ( "figures 9 and 12 (quiescent strawman)",
        [
          Alcotest.test_case "figure 9 realized" `Quick test_fig9_realized;
          Alcotest.test_case "figure 12 realized" `Quick test_fig12_realized;
        ] );
    ]
