open Tm_history

let max_period = 200
let min_repeats = 3

let find_lasso h =
  let es = Array.of_list (History.events h) in
  let n = Array.length es in
  let rec try_period q =
    if q > max_period || q * min_repeats > n then None
    else begin
      (* Check that the suffix repeats with period q at least min_repeats
         times. *)
      let repeats_ok =
        let limit = n - (q * min_repeats) in
        let rec matches i =
          (* es.(i) must equal es.(i+q) for all i in [limit, n-q-1]. *)
          i >= n - q || (Event.equal es.(i) es.(i + q) && matches (i + 1))
        in
        matches limit
      in
      if not repeats_ok then try_period (q + 1)
      else
        let stem_len = n - (q * min_repeats) in
        let stem = Array.to_list (Array.sub es 0 stem_len) in
        let cycle = Array.to_list (Array.sub es stem_len q) in
        match Lasso.check ~stem ~cycle with
        | Ok l -> Some l
        | Error _ -> try_period (q + 1)
    end
  in
  if n = 0 then None else try_period 1

type window_summary = {
  proc : Event.proc;
  events_total : int;
  events_in_window : int;
  commits_in_window : int;
  aborts_in_window : int;
  trycs_in_window : int;
  looks_pending : bool;
  looks_crashed : bool;
  looks_parasitic : bool;
  looks_progressing : bool;
}

(* What the window counts of an event, as the low two bits of a ring
   code. *)
type kind = Other | Commit | Abort | Try_commit

let kind e =
  if Event.is_commit e then Commit
  else if Event.is_abort e then Abort
  else if Event.is_try_commit e then Try_commit
  else Other

let code_of_kind = function
  | Other -> 0
  | Commit -> 1
  | Abort -> 2
  | Try_commit -> 3

(* Per-process event counts over everything tallied, in an array indexed
   from the lowest process counted, and the codes ((process - lo) * 4 +
   kind) of the newest events in a ring: [ring.(pos - 1)] is the newest,
   wrapping. *)
type tally = {
  lo : Event.proc;
  total : int array;
  ring : int array;
  mutable pos : int;
  mutable count : int;  (** events tallied *)
}

let tally ~lo ~hi ~capacity =
  {
    lo;
    total = Array.make (Int.max 0 (hi - lo + 1)) 0;
    ring = Array.make (Int.max 1 capacity) 0;
    pos = 0;
    count = 0;
  }

let tally_kind t p kind =
  let k = p - t.lo in
  t.total.(k) <- t.total.(k) + 1;
  t.ring.(t.pos) <- (k lsl 2) lor code_of_kind kind;
  let pos = t.pos + 1 in
  t.pos <- (if pos = Array.length t.ring then 0 else pos);
  t.count <- t.count + 1

let tally_event t e = tally_kind t (Event.proc e) (kind e)

let tally_summaries t ~window =
  let w = Int.max 0 (Int.min window t.count) and cap = Array.length t.ring in
  if w > cap then
    invalid_arg "Empirical.tally_summaries: window exceeds capacity";
  let size = Array.length t.total in
  let in_window = Array.make size 0 and commits = Array.make size 0 in
  let aborts = Array.make size 0 and trycs = Array.make size 0 in
  let start = t.pos - w in
  for j = 0 to w - 1 do
    let i = start + j in
    let c = t.ring.(if i < 0 then i + cap else i) in
    let k = c lsr 2 in
    in_window.(k) <- in_window.(k) + 1;
    match c land 3 with
    | 1 -> commits.(k) <- commits.(k) + 1
    | 2 -> aborts.(k) <- aborts.(k) + 1
    | 3 -> trycs.(k) <- trycs.(k) + 1
    | _ -> ()
  done;
  let summary k =
    let events_total = t.total.(k) and events_in_window = in_window.(k) in
    let commits_in_window = commits.(k) and aborts_in_window = aborts.(k) in
    let trycs_in_window = trycs.(k) in
    let looks_pending = commits_in_window = 0 in
    let looks_crashed = events_total > 0 && events_in_window = 0 in
    let looks_parasitic =
      events_in_window > 0 && trycs_in_window = 0 && aborts_in_window = 0
    in
    {
      proc = t.lo + k;
      events_total;
      events_in_window;
      commits_in_window;
      aborts_in_window;
      trycs_in_window;
      looks_pending;
      looks_crashed;
      looks_parasitic;
      looks_progressing =
        (not looks_pending) && (not looks_crashed) && not looks_parasitic;
    }
  in
  let rec collect k acc =
    if k < 0 then acc
    else collect (k - 1) (if t.total.(k) > 0 then summary k :: acc else acc)
  in
  collect (size - 1) []

(* One pass over the events after one over the process range. *)
let classify_window ~window h =
  let n = History.length h in
  if n = 0 then []
  else begin
    let lo = ref max_int and hi = ref min_int in
    List.iter
      (fun e ->
        lo := Int.min !lo (Event.proc e);
        hi := Int.max !hi (Event.proc e))
      (History.rev_events h);
    let t = tally ~lo:!lo ~hi:!hi ~capacity:(Int.min window n) in
    History.iter (tally_event t) h;
    tally_summaries t ~window
  end

(* Counter-sample classification: the watchdog's view of a real domain.
   Two samples of monotone per-domain counters bracket an observation
   window; the deltas replay the window heuristics of [classify_window]
   on counters instead of history events. *)
type counters = { c_ops : int; c_trycs : int; c_commits : int; c_aborts : int }

let counters ~ops ~trycs ~commits ~aborts =
  { c_ops = ops; c_trycs = trycs; c_commits = commits; c_aborts = aborts }

let classify_counters ~first ~last =
  let d f = f last - f first in
  let ops = d (fun c -> c.c_ops)
  and trycs = d (fun c -> c.c_trycs)
  and commits = d (fun c -> c.c_commits)
  and aborts = d (fun c -> c.c_aborts) in
  if ops <= 0 then Process_class.Crashed
    (* A parasite on real hardware is not perfectly abort-free: a peer
       descheduled mid-commit can strand a global lock long enough to
       force a bounded-spin restart of an otherwise endless body.  Such
       restarts are noise, not work: tolerate aborts up to 1/64 of the
       window's operations.  A genuinely starving process fails this by
       orders of magnitude — its operations *are* its failed attempts,
       so its aborts are a constant fraction of its ops. *)
  else if trycs = 0 && aborts * 64 <= ops then Process_class.Parasitic
  else if commits = 0 then Process_class.Starving
  else Process_class.Progressing

let pp_window_summary ppf s =
  Fmt.pf ppf
    "p%d: %d events (%d in window), C=%d A=%d tryC=%d%s%s%s%s" s.proc
    s.events_total s.events_in_window s.commits_in_window s.aborts_in_window
    s.trycs_in_window
    (if s.looks_pending then " pending?" else "")
    (if s.looks_crashed then " crashed?" else "")
    (if s.looks_parasitic then " parasitic?" else "")
    (if s.looks_progressing then " progressing" else "")
