(* The Theorem-1 impossibility, played out: run the paper's adversary
   (Algorithms 1 and 2) against every TM in the zoo and watch process p1
   starve — or p2 starve with it, or the TM block — exactly as the proof
   predicts (Tm_adversary.Adversary.verdict names the outcome).

   Run with: dune exec examples/impossibility_game.exe *)

let play alg alg_name =
  Fmt.pr "== %s ==@." alg_name;
  Fmt.pr "%-18s %-8s %-10s %-10s %-10s %s@." "TM" "rounds" "p1-commit"
    "p1-abort" "p2-commit" "verdict";
  List.iter
    (fun entry ->
      let r = Tm_adversary.Adversary.run ~rounds:30 entry alg in
      let verdict =
        match Tm_adversary.Adversary.verdict r with
        | Blocked -> "blocked (escapes by withholding responses)"
        | Winner_starved -> "p2 starves too: no global progress (Figs 9/12)"
        | Victim_committed -> "TERMINATED (opacity violated!)"
        | Victim_starves -> "p1 starves: local progress violated"
      in
      Fmt.pr "%-18s %-8d %-10d %-10d %-10d %s@."
        entry.Tm_impl.Registry.entry_name
        r.Tm_adversary.Adversary.rounds_completed
        r.Tm_adversary.Adversary.victim_commits
        r.Tm_adversary.Adversary.victim_aborts
        r.Tm_adversary.Adversary.winner_commits verdict)
    Tm_impl.Registry.all;
  Fmt.pr "@."

let () =
  Fmt.pr
    "Theorem 1 (PODC 2012): no TM ensures both opacity and local progress@.\
     in a fault-prone system.  The adversary below wins against every TM:@.\
     either p1 never commits while p2 commits forever, or p2 starves too@.\
     (a TM without global progress), or the TM blocks.@.@.";
  play Tm_adversary.Adversary.Algorithm_1 "Algorithm 1 (parasitic-free case)";
  play Tm_adversary.Adversary.Algorithm_2 "Algorithm 2 (crash-free case)";

  (* The generalization (Lemma 1): n-1 victims starve at once. *)
  Fmt.pr "== Lemma 1: n-process generalization (vs fgp) ==@.";
  let entry = Option.get (Tm_impl.Registry.find "fgp") in
  List.iter
    (fun n ->
      let r = Tm_adversary.Adversary.General.run ~rounds:15 ~nprocs:n entry in
      let victim_commits =
        Array.to_list r.Tm_adversary.Adversary.General.commits
        |> List.filteri (fun i _ -> i >= 1 && i < n)
        |> List.fold_left ( + ) 0
      in
      Fmt.pr
        "n=%d: %d rounds, winner committed %d, all %d victims combined \
         committed %d@."
        n
        r.Tm_adversary.Adversary.General.rounds_completed
        r.Tm_adversary.Adversary.General.commits.(n)
        (n - 1) victim_commits)
    [ 2; 3; 5; 8 ]
