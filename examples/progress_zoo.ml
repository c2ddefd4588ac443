(* The Section-3.2.3 progress taxonomy, measured: which TM lets a solo
   runner make progress under which fault?  Two processes share one
   t-variable; p1 suffers the fault, p2 keeps retrying transactions
   (Tm_sim.Solo: uniform scheduling for the healthy baseline, because
   round-robin lockstep on one hot t-variable is itself an adversarial
   schedule — that is Theorem 1, not a fault; deterministic round-robin
   for the fault columns).

   Run with: dune exec examples/progress_zoo.exe *)

let mark b = if b then "  yes   " else "  NO    "

let () =
  Fmt.pr
    "Solo progress under faults (p1 faulty, does the solo runner p2 make@.\
     progress?).  Reproduces the classification of Section 3.2.3:@.\
     lock-based encounter-time TMs need crash-free AND parasitic-free;@.\
     deferred-update TL2 needs crash-free; obstruction-free DSTM needs@.\
     parasitic-free (or an aggressive manager that converts parasites into@.\
     aborted processes); lock-free OSTM and the paper's Fgp survive all.@.@.";
  Fmt.pr "%-18s %-8s %-8s %-8s %-8s@." "TM" "healthy" "crash" "mid-commit"
    "parasite";
  List.iter
    (fun entry ->
      let r = Tm_sim.Solo.measure entry in
      Fmt.pr "%-18s %s %s %s %s@." entry.Tm_impl.Registry.entry_name
        (mark r.healthy) (mark r.crash_after_write) (mark r.mid_commit)
        (mark r.parasite))
    Tm_impl.Registry.all;
  Fmt.pr
    "@.Random-crash vulnerability: fraction of 40 random crash points that@.\
     leave the solo runner stuck (3-write transactions, one hot \
     t-variable).@.@.";
  List.iter
    (fun entry ->
      Fmt.pr "%-18s %2d/40 crash points stall the runner@."
        entry.Tm_impl.Registry.entry_name
        (Tm_sim.Solo.crash_windows entry).stalls)
    Tm_impl.Registry.all
