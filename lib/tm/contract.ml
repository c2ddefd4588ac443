type assumption = Crash_free | Parasitic_free

type t = {
  tm_name : string;
  solo_requires : assumption list;
  global_progress_fault_prone : bool;
  notes : string;
}

let v tm_name solo_requires global_progress_fault_prone notes =
  { tm_name; solo_requires; global_progress_fault_prone; notes }

let all =
  [
    v "global-lock"
      [ Crash_free; Parasitic_free ]
      false "blocking; local progress when nobody is faulty (§3.2.1)";
    v "fgp" [] true "the paper's Theorem-3 automaton";
    v "tl2" [ Crash_free ]
      false "commit-time locks strand on a mid-commit crash (§3.2.3)";
    v "tinystm"
      [ Crash_free; Parasitic_free ]
      false "encounter-time locks strand on any mid-transaction fault";
    v "tinystm-ext"
      [ Crash_free; Parasitic_free ]
      false "timestamp extension changes abort rates, not fault character";
    v "swisstm"
      [ Crash_free; Parasitic_free ]
      false "eager write locks strand like TinySTM's (§3.2.3)";
    v "dstm-aggressive" [ Parasitic_free ] false
      "revocable ownership tolerates crashes; parasites livelock it";
    v "dstm-polite-4" [] false
      "bounded politeness outwaits parasites and steals from crashes";
    v "dstm-karma" [] false
      "stealing resets a parasite's karma, converting it into an aborted \
       process";
    v "dstm-greedy"
      [ Crash_free; Parasitic_free ]
      false "timestamp priority waits forever for an older faulty victim";
    v "ostm" [] true "lock-free helping finishes crashed commits";
    v "norec" [ Crash_free ]
      false "the single commit lock strands on a mid-commit crash";
    v "mvstm" [ Crash_free ]
      false "commit-time locks like TL2; reads never abort";
    v "quiescent"
      [ Crash_free; Parasitic_free ]
      false "one open transaction starves all writers (Figures 9/12)";
    v "twopl"
      [ Crash_free; Parasitic_free ]
      false
      "a faulty lock holder is not waiting, so deadlock detection cannot \
       free its locks";
    v "fgp-priority"
      [ Crash_free; Parasitic_free ]
      false
      "priority progress only: a fault above you in the priority order \
       starves you";
  ]

let find name = List.find_opt (fun c -> c.tm_name = name) all

let pp ppf c =
  let assumption = function
    | Crash_free -> "crash-free"
    | Parasitic_free -> "parasitic-free"
  in
  Fmt.pf ppf "%-18s solo: %s%s — %s" c.tm_name
    (match c.solo_requires with
    | [] -> "any fault-prone system"
    | l -> String.concat " + " (List.map assumption l))
    (if c.global_progress_fault_prone then "; global progress always" else "")
    c.notes
