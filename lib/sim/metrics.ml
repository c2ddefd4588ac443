open Tm_history

let hist_bucket_label k =
  let upper = Hist.bucket_upper Hist.sim in
  let lo = if k = 0 then 0 else upper (k - 1) + 1 in
  if k = Hist.nbuckets Hist.sim - 1 then Fmt.str "%d+" lo
  else if lo = upper k then string_of_int lo
  else Fmt.str "%d-%d" lo (upper k)

let pp_histogram ppf (h : Hist.t) =
  if h.count = 0 then Fmt.pf ppf "(empty)"
  else begin
    Fmt.pf ppf "@[<v>";
    Array.iteri
      (fun k c ->
        if c > 0 then
          Fmt.pf ppf "%10s %6d  %s@," (hist_bucket_label k) c
            (String.make (max 1 (c * 40 / h.count)) '#'))
      h.buckets;
    Fmt.pf ppf "count %d, mean %.2f, max %d@]" h.count (Hist.mean h)
      h.max_sample
  end

type abort_causes = { on_read : int; on_write : int; on_commit : int }

type t = {
  commits : int;
  aborts : int;
  invocations : int;
  defers : int;
  faults : int;
  starvations : int;
  steps : int;
  events : int;
  throughput : float;
  abort_causes : abort_causes;
  retry_depth : Hist.t;
  commit_latency : Hist.t;
  abort_latency : Hist.t;
}

(* The cause an abort is charged to: the kind of the pending invocation,
   with no pending invocation counting as a commit-time abort. *)
type cause = On_read | On_write | On_commit

module Empirical = Tm_liveness.Empirical

(* Per process, the index of its current transaction's first invocation,
   the cause its pending invocation would be charged and its streak of
   consecutive aborts (the retry depth recorded at the next commit); and
   the window counts of the empirical fault/starvation reading: a
   process that looks crashed or parasitic in the last quarter of the
   events is a fault, an active process with no commit in it (and no
   injected-looking fault) is starving.  These are the chaos watchdog's
   bounded-window heuristics ({!Tm_liveness.Empirical}), applied to the
   deterministic event stream. *)
type tally = {
  window : Empirical.tally;
  txn_start : int array;
  pending : cause array;
  retries : int array;
  mutable next : int;  (** the index of the next event *)
  mutable t_commits : int;
  mutable t_aborts : int;
  mutable t_invocations : int;
  mutable on_read : int;
  mutable on_write : int;
  mutable on_commit : int;
  t_retry_depth : Hist.t;
  t_commit_latency : Hist.t;
  t_abort_latency : Hist.t;
}

let tally ~nprocs ~capacity =
  {
    window = Empirical.tally ~lo:0 ~hi:nprocs ~capacity;
    txn_start = Array.make (nprocs + 1) (-1);
    pending = Array.make (nprocs + 1) On_commit;
    retries = Array.make (nprocs + 1) 0;
    next = 0;
    t_commits = 0;
    t_aborts = 0;
    t_invocations = 0;
    on_read = 0;
    on_write = 0;
    on_commit = 0;
    t_retry_depth = Hist.create Hist.sim;
    t_commit_latency = Hist.create Hist.sim;
    t_abort_latency = Hist.create Hist.sim;
  }

let tally_invocation t p (inv : Event.invocation) =
  let i = t.next in
  t.next <- i + 1;
  t.t_invocations <- t.t_invocations + 1;
  if t.txn_start.(p) < 0 then t.txn_start.(p) <- i;
  match inv with
  | Event.Read _ ->
      Empirical.tally_kind t.window p Empirical.Other;
      t.pending.(p) <- On_read
  | Event.Write _ ->
      Empirical.tally_kind t.window p Empirical.Other;
      t.pending.(p) <- On_write
  | Event.Try_commit ->
      Empirical.tally_kind t.window p Empirical.Try_commit;
      t.pending.(p) <- On_commit

let tally_response t p (resp : Event.response) =
  let i = t.next in
  t.next <- i + 1;
  let latency = i - Int.max 0 t.txn_start.(p) in
  match resp with
  | Event.Value _ | Event.Ok_written ->
      Empirical.tally_kind t.window p Empirical.Other;
      t.pending.(p) <- On_commit
  | Event.Committed ->
      Empirical.tally_kind t.window p Empirical.Commit;
      t.t_commits <- t.t_commits + 1;
      Hist.add t.t_commit_latency latency;
      Hist.add t.t_retry_depth t.retries.(p);
      t.retries.(p) <- 0;
      t.txn_start.(p) <- -1;
      t.pending.(p) <- On_commit
  | Event.Aborted ->
      Empirical.tally_kind t.window p Empirical.Abort;
      t.t_aborts <- t.t_aborts + 1;
      (match t.pending.(p) with
      | On_read -> t.on_read <- t.on_read + 1
      | On_write -> t.on_write <- t.on_write + 1
      | On_commit -> t.on_commit <- t.on_commit + 1);
      Hist.add t.t_abort_latency latency;
      t.retries.(p) <- t.retries.(p) + 1;
      t.txn_start.(p) <- -1;
      t.pending.(p) <- On_commit

let of_tally t ~defers ~steps =
  let n = t.next in
  let faults, starvations =
    List.fold_left
      (fun (faults, starved) (s : Empirical.window_summary) ->
        if s.looks_crashed || s.looks_parasitic then (faults + 1, starved)
        else if s.events_in_window > 0 && s.commits_in_window = 0 then
          (faults, starved + 1)
        else (faults, starved))
      (0, 0)
      (Empirical.tally_summaries t.window ~window:(max 1 (n / 4)))
  in
  {
    commits = t.t_commits;
    aborts = t.t_aborts;
    invocations = t.t_invocations;
    defers;
    faults;
    starvations;
    steps;
    events = n;
    throughput =
      (if steps = 0 then 0.0
       else float_of_int t.t_commits /. float_of_int steps);
    abort_causes =
      { on_read = t.on_read; on_write = t.on_write; on_commit = t.on_commit };
    retry_depth = t.t_retry_depth;
    commit_latency = t.t_commit_latency;
    abort_latency = t.t_abort_latency;
  }

let merge a b =
  let steps = a.steps + b.steps in
  let commits = a.commits + b.commits in
  {
    commits;
    aborts = a.aborts + b.aborts;
    invocations = a.invocations + b.invocations;
    defers = a.defers + b.defers;
    faults = a.faults + b.faults;
    starvations = a.starvations + b.starvations;
    steps;
    events = a.events + b.events;
    throughput =
      (if steps = 0 then 0.0 else float_of_int commits /. float_of_int steps);
    abort_causes =
      {
        on_read = a.abort_causes.on_read + b.abort_causes.on_read;
        on_write = a.abort_causes.on_write + b.abort_causes.on_write;
        on_commit = a.abort_causes.on_commit + b.abort_causes.on_commit;
      };
    retry_depth = Hist.merge a.retry_depth b.retry_depth;
    commit_latency = Hist.merge a.commit_latency b.commit_latency;
    abort_latency = Hist.merge a.abort_latency b.abort_latency;
  }

(* A hand-rolled JSON emitter: the only consumer requirements are a stable
   key order and byte-stable number formatting, so sequential and parallel
   sweeps serialize identically. *)
let json_hist buf (h : Hist.t) =
  Printf.bprintf buf
    "{\"count\":%d,\"sum\":%d,\"max\":%d,\"mean\":%.6f,\"buckets\":[" h.count
    h.sum h.max_sample (Hist.mean h);
  Array.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int c))
    h.buckets;
  Buffer.add_string buf "]}"

let to_json buf m =
  Printf.bprintf buf
    "{\"commits\":%d,\"aborts\":%d,\"invocations\":%d,\"defers\":%d,\"faults\":%d,\"starvations\":%d,\"steps\":%d,\"events\":%d,\"throughput\":%.6f,"
    m.commits m.aborts m.invocations m.defers m.faults m.starvations m.steps
    m.events m.throughput;
  Printf.bprintf buf
    "\"abort_causes\":{\"read\":%d,\"write\":%d,\"commit\":%d},"
    m.abort_causes.on_read m.abort_causes.on_write m.abort_causes.on_commit;
  Buffer.add_string buf "\"retry_depth\":";
  json_hist buf m.retry_depth;
  Buffer.add_string buf ",\"commit_latency\":";
  json_hist buf m.commit_latency;
  Buffer.add_string buf ",\"abort_latency\":";
  json_hist buf m.abort_latency;
  Buffer.add_char buf '}'

let pp ppf m =
  Fmt.pf ppf
    "@[<v>commits %d, aborts %d (read %d / write %d / commit %d), defers %d, \
     faults %d, starvations %d@,\
     throughput %.4f commits/step, commit latency mean %.1f ev (max %d), \
     retry depth mean %.2f (max %d)@]"
    m.commits m.aborts m.abort_causes.on_read m.abort_causes.on_write
    m.abort_causes.on_commit m.defers m.faults m.starvations m.throughput
    (Hist.mean m.commit_latency)
    m.commit_latency.max_sample (Hist.mean m.retry_depth)
    m.retry_depth.max_sample
