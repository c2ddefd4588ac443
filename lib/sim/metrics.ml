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

(* Walk the history once.  Per process, track the index of its current
   transaction's first invocation, the cause its pending invocation would
   be charged and its streak of consecutive aborts (the retry depth
   recorded at the next commit); and tally the events of the last quarter
   of the history for the empirical fault/starvation reading: a process
   that looks crashed or parasitic in that window is a fault, an active
   process with no commit in it (and no injected-looking fault) is
   starving.  These are the chaos watchdog's bounded-window heuristics
   ({!Tm_liveness.Empirical}), applied post hoc to the deterministic
   history.  The processes are the outcome's, [0 .. nprocs]. *)
let of_outcome (o : Runner.outcome) =
  let h = o.Runner.history in
  let nprocs = Array.length o.Runner.commits - 1 in
  let n = History.length h in
  let window =
    Tm_liveness.Empirical.tally ~lo:0 ~hi:nprocs ~length:n
      ~window:(max 1 (n / 4))
  in
  let txn_start = Array.make (nprocs + 1) (-1) in
  let pending = Array.make (nprocs + 1) On_commit in
  let retries = Array.make (nprocs + 1) 0 in
  let on_read = ref 0 and on_write = ref 0 and on_commit = ref 0 in
  let retry_depth = Hist.create Hist.sim in
  let commit_latency = Hist.create Hist.sim in
  let abort_latency = Hist.create Hist.sim in
  let next = ref 0 in
  History.iter
    (fun (e : Event.t) ->
      let i = !next in
      next := i + 1;
      Tm_liveness.Empirical.tally_event window i e;
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
              Hist.add commit_latency latency;
              Hist.add retry_depth retries.(p);
              retries.(p) <- 0;
              txn_start.(p) <- -1;
              pending.(p) <- On_commit
          | Event.Aborted ->
              (match pending.(p) with
              | On_read -> incr on_read
              | On_write -> incr on_write
              | On_commit -> incr on_commit);
              Hist.add abort_latency latency;
              retries.(p) <- retries.(p) + 1;
              txn_start.(p) <- -1;
              pending.(p) <- On_commit))
    h;
  let faults, starvations =
    List.fold_left
      (fun (faults, starved) (s : Tm_liveness.Empirical.window_summary) ->
        if s.looks_crashed || s.looks_parasitic then (faults + 1, starved)
        else if s.events_in_window > 0 && s.commits_in_window = 0 then
          (faults, starved + 1)
        else (faults, starved))
      (0, 0)
      (Tm_liveness.Empirical.tally_summaries window)
  in
  {
    commits = Runner.commit_total o;
    aborts = Runner.abort_total o;
    invocations = Runner.total o.Runner.invocations;
    defers = Runner.total o.Runner.defers;
    faults;
    starvations;
    steps = o.Runner.steps_taken;
    events = n;
    throughput = Runner.throughput o;
    abort_causes =
      { on_read = !on_read; on_write = !on_write; on_commit = !on_commit };
    retry_depth;
    commit_latency;
    abort_latency;
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
  Buffer.add_string buf
    (Fmt.str "{\"count\":%d,\"sum\":%d,\"max\":%d,\"mean\":%.6f,\"buckets\":["
       h.count h.sum h.max_sample (Hist.mean h));
  Array.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int c))
    h.buckets;
  Buffer.add_string buf "]}"

let to_json buf m =
  Buffer.add_string buf
    (Fmt.str
       "{\"commits\":%d,\"aborts\":%d,\"invocations\":%d,\"defers\":%d,\"faults\":%d,\"starvations\":%d,\"steps\":%d,\"events\":%d,\"throughput\":%.6f,"
       m.commits m.aborts m.invocations m.defers m.faults m.starvations
       m.steps m.events m.throughput);
  Buffer.add_string buf
    (Fmt.str
       "\"abort_causes\":{\"read\":%d,\"write\":%d,\"commit\":%d},"
       m.abort_causes.on_read m.abort_causes.on_write m.abort_causes.on_commit);
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
