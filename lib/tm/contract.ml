type row = {
  healthy : bool;
  crash_after_write : bool;
  mid_commit : bool;
  parasite : bool;
}

let cells r =
  [
    ("healthy", r.healthy);
    ("crash-after-write", r.crash_after_write);
    ("crash-mid-commit", r.mid_commit);
    ("parasite", r.parasite);
  ]

type t = {
  tm_name : string;
  expected : row;
  mid_commit_depth : int;
  global_progress_fault_prone : bool;
  winner_starves : bool;
  notes : string;
}

(* [v name healthy crash-after-write mid-commit parasite global notes];
   a multi-poll commit names the poll its lock phase ends on, and a TM
   whose Theorem-1 winner starves too says so. *)
let v ?(mid_commit_depth = 0) ?(winner_starves = false) tm_name healthy
    crash_after_write mid_commit parasite global_progress_fault_prone notes =
  {
    tm_name;
    expected = { healthy; crash_after_write; mid_commit; parasite };
    mid_commit_depth;
    global_progress_fault_prone;
    winner_starves;
    notes;
  }

let all =
  [
    v "global-lock" true false false false false
      "blocking; local progress when nobody is faulty (§3.2.1)";
    v "fgp" true true true true true "the paper's Theorem-3 automaton";
    v ~mid_commit_depth:2 "tl2" true true false true false
      "commit-time locks strand on a mid-commit crash (§3.2.3)";
    v "tinystm" true false false false false
      "encounter-time locks strand on any mid-transaction fault";
    v "tinystm-ext" true false false false false
      "timestamp extension changes abort rates, not fault character";
    v "swisstm" true false false false false
      "eager write locks strand like TinySTM's (§3.2.3)";
    v "dstm-aggressive" true true true false false
      "revocable ownership tolerates crashes; parasites livelock it";
    v "dstm-polite-4" true true true true false
      "bounded politeness outwaits parasites and steals from crashes";
    v "dstm-karma" true true true true false
      "stealing resets a parasite's karma, converting it into an aborted \
       process";
    v "dstm-greedy" true false false false false
      "timestamp priority waits forever for an older faulty victim";
    v ~mid_commit_depth:2 "ostm" true true true true true
      "lock-free helping finishes crashed commits";
    v ~mid_commit_depth:2 "norec" true true false true false
      "the single commit lock strands on a mid-commit crash";
    v ~mid_commit_depth:2 "mvstm" true true false true false
      "commit-time locks like TL2; reads never abort";
    v ~winner_starves:true "quiescent" true false false false false
      "one open transaction starves all writers (Figures 9/12)";
    v "twopl" true false false false false
      "a faulty lock holder is not waiting, so deadlock detection cannot \
       free its locks";
    (* Priority progress only: even a healthy p1, the top priority,
       starves the runner under a uniform schedule. *)
    v ~winner_starves:true "fgp-priority" false false false false false
      "priority progress only: a fault above you in the priority order \
       starves you";
  ]

let find name = List.find_opt (fun c -> c.tm_name = name) all

let pp ppf c =
  let r = c.expected in
  let solo_requires =
    (if r.crash_after_write && r.mid_commit then [] else [ "crash-free" ])
    @ if r.parasite then [] else [ "parasitic-free" ]
  in
  Fmt.pf ppf "%-18s solo: %s%s — %s" c.tm_name
    (match solo_requires with
    | [] -> "any fault-prone system"
    | l -> String.concat " + " l)
    (if c.global_progress_fault_prone then "; global progress always" else "")
    c.notes
