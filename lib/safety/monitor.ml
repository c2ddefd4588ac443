open Tm_history

(* Epoch = number of commits applied so far.  The committed value of a
   t-variable during epoch interval [from, next_from) is recorded in a
   newest-first version list; every t-variable implicitly starts with
   (0, 0).

   Reads are recorded and evaluated lazily when the transaction finishes:
   by then the version history covers the transaction's whole lifetime, so
   the set of epochs at which the entire read set is simultaneously
   consistent is exact.

   The state is plain data.  Each process has [nf] ints in one flat
   array: its pending invocation, the start epoch of its open transaction
   (-1 when none is open), and the ranges of its own read and write logs
   that hold that transaction's (t-variable, value) pairs.  Versions are
   an array of immutable lists indexed by t-variable.  All tables grow on
   demand; a slot past the processes seen so far is always clear. *)

let f_inv = 0 (* the pending invocation: one of the [k_*] below *)
let f_x = 1 (* its t-variable *)
let f_v = 2 (* its value, for a write *)
let f_start = 3 (* start epoch of the open transaction, or -1 *)
let f_r0 = 4 (* the open transaction's reads: [reads.(p).(r0 .. r1-1)] *)
let f_r1 = 5
let f_w0 = 6 (* its writes, oldest first: [writes.(p).(w0 .. w1-1)] *)
let f_w1 = 7
let nf = 8
let k_none = 0
let k_read = 1
let k_write = 2
let k_commit = 3

type t = {
  mutable record : bool;
      (** logs only grow, and installs and process-int writes are logged,
          so earlier states can be restored (see [run]); otherwise a
          transaction's logs restart at 0 *)
  mutable epoch : int;
  mutable failed : string option;
  mutable versions : (int * Event.value) list array;  (** by t-variable *)
  mutable procs : int array;  (** by process, [nf] ints each *)
  mutable np : int;  (** processes [0 .. np-1] may be non-clear *)
  mutable reads : int array array;  (** by process: x, v, x, v, ... *)
  mutable writes : int array array;
  mutable installs : int array;  (** recording: t-variables installed *)
  mutable ninstalls : int;
  mutable trail : int array;
      (** recording: (index, old value) of each write to [procs] *)
  mutable ntrail : int;
}

let initial_versions = [ (0, 0) ]

let clear_procs a lo hi =
  for p = lo to hi - 1 do
    let b = p * nf in
    for k = 0 to nf - 1 do
      a.(b + k) <- 0
    done;
    a.(b + f_start) <- -1
  done

let new_procs n =
  let a = Array.make (n * nf) 0 in
  clear_procs a 0 n;
  a

(* Processes 0..3 fit without growing. *)
let make ~record =
  {
    record;
    epoch = 0;
    failed = None;
    versions = [||];
    procs = new_procs 4;
    np = 0;
    reads = Array.make 4 [||];
    writes = Array.make 4 [||];
    installs = [||];
    ninstalls = 0;
    trail = [||];
    ntrail = 0;
  }

let create () = make ~record:false
let capacity n i = Int.max (i + 1) (2 * n)
let max_id = (1 lsl 20) - 1

let check_id what i =
  if i < 0 || i > max_id then
    invalid_arg (Fmt.str "Monitor.step: %s %d out of range 0..%d" what i max_id)

let versions_of t x =
  if x < Array.length t.versions then t.versions.(x) else initial_versions

let set_versions t x vs =
  let n = Array.length t.versions in
  if x >= n then begin
    let a = Array.make (capacity n x) initial_versions in
    Array.blit t.versions 0 a 0 n;
    t.versions <- a
  end;
  t.versions.(x) <- vs

(* Make room for process [p] in the by-process tables. *)
let ensure_proc t p =
  let n = Array.length t.reads in
  if p >= n then begin
    let m = capacity n p in
    let procs = new_procs m in
    for k = 0 to (t.np * nf) - 1 do
      procs.(k) <- t.procs.(k)
    done;
    let widen a =
      let b = Array.make m [||] in
      Array.blit a 0 b 0 n;
      b
    in
    t.procs <- procs;
    t.reads <- widen t.reads;
    t.writes <- widen t.writes
  end;
  if p >= t.np then t.np <- p + 1

(* A copy of [log]'s first [n] ints with room for at least 2 more. *)
let grow log n =
  let log' = Array.make (Int.max 8 (2 * Array.length log)) 0 in
  for i = 0 to n - 1 do
    log'.(i) <- log.(i)
  done;
  log'

(* [t.procs.(k) <- v], trailing the old value while recording. *)
let set t k v =
  if t.record then begin
    let n = t.ntrail in
    if n + 2 > Array.length t.trail then t.trail <- grow t.trail n;
    t.trail.(n) <- k;
    t.trail.(n + 1) <- t.procs.(k);
    t.ntrail <- n + 2
  end;
  t.procs.(k) <- v

(* Whether some epoch in [lo, hi] lets every read in [log.(r0 .. i+1)]
   see its value in the committed store: a depth-first walk, newest read
   first, that picks, read by read, a version segment holding the read
   value and narrows [lo, hi] to it. *)
let rec consistent t log r0 i lo hi =
  i < r0
  || segments t log r0 i log.(i + 1) lo hi max_int (versions_of t log.(i))

(* The segments of one t-variable, newest first; [upper] is the last
   epoch of the first one.  Older segments end earlier still, so the walk
   stops at the first segment that ends before [lo]. *)
and segments t log r0 i v lo hi upper = function
  | [] -> false
  | (from, value) :: older ->
      upper >= lo
      && ((value = v
          &&
          let a = Int.max from lo and b = Int.min upper hi in
          a <= b && consistent t log r0 (i - 2) a b)
         || segments t log r0 i v lo hi (from - 1) older)

let has_point t p ~lo ~hi =
  let b = p * nf in
  consistent t t.reads.(p) t.procs.(b + f_r0) (t.procs.(b + f_r1) - 2) lo hi

(* The index of the open transaction's latest write to [x] in its write
   log [log], searched down from [i] to [w0], or -1. *)
let rec own_write log w0 x i =
  if i < w0 then -1 else if log.(i) = x then i else own_write log w0 x (i - 2)

(* Open a transaction for [p] unless one is open. *)
let open_txn t p =
  let a = t.procs and b = p * nf in
  if a.(b + f_start) < 0 then begin
    set t (b + f_start) t.epoch;
    if t.record then begin
      set t (b + f_r0) a.(b + f_r1);
      set t (b + f_w0) a.(b + f_w1)
    end
    else begin
      a.(b + f_r0) <- 0;
      a.(b + f_r1) <- 0;
      a.(b + f_w0) <- 0;
      a.(b + f_w1) <- 0
    end
  end

let fail t msg = if t.failed = None then t.failed <- Some msg

let finish_aborted t p =
  let b = p * nf in
  if not (has_point t p ~lo:t.procs.(b + f_start) ~hi:t.epoch) then
    fail t
      (Fmt.str "aborted transaction of p%d has no consistent snapshot point"
         p);
  set t (b + f_start) (-1)

(* Install a committed writer's final value per variable.  The write log
   is walked latest first, so the first write met for a variable is its
   final value; a variable whose newest version is already at the current
   epoch was installed by this commit. *)
let install t p =
  let log = t.writes.(p) and b = p * nf in
  let w0 = t.procs.(b + f_w0) in
  let i = ref (t.procs.(b + f_w1) - 2) in
  while !i >= w0 do
    let x = log.(!i) in
    (match versions_of t x with
    | (from, _) :: _ when from = t.epoch -> ()
    | vs ->
        set_versions t x ((t.epoch, log.(!i + 1)) :: vs);
        if t.record then begin
          if t.ninstalls = Array.length t.installs then
            t.installs <- grow t.installs t.ninstalls;
          t.installs.(t.ninstalls) <- x;
          t.ninstalls <- t.ninstalls + 1
        end);
    i := !i - 2
  done

let finish_committed t p =
  let b = p * nf in
  (if t.procs.(b + f_w0) = t.procs.(b + f_w1) then begin
     if not (has_point t p ~lo:t.procs.(b + f_start) ~hi:t.epoch) then
       fail t
         (Fmt.str
            "read-only committed transaction of p%d has no consistent \
             snapshot point"
            p)
   end
   else begin
     (* A committed writer serializes at its commit instant: the reads
        must be consistent with the current committed store. *)
     if not (has_point t p ~lo:t.epoch ~hi:t.epoch) then
       fail t
         (Fmt.str
            "committed transaction of p%d is not consistent at its commit \
             instant"
            p);
     t.epoch <- t.epoch + 1;
     install t p
   end);
  set t (b + f_start) (-1)

(* Append the pair [x, v] to one of [p]'s logs, whose end is field
   [f]. *)
let log_pair t logs p f x v =
  let i = t.procs.((p * nf) + f) in
  if i + 2 > Array.length logs.(p) then logs.(p) <- grow logs.(p) i;
  let log = logs.(p) in
  log.(i) <- x;
  log.(i + 1) <- v;
  set t ((p * nf) + f) (i + 2)

let on_read t p x v =
  let b = p * nf in
  let w =
    own_write t.writes.(p) t.procs.(b + f_w0) x (t.procs.(b + f_w1) - 2)
  in
  if w < 0 then log_pair t t.reads p f_r1 x v
  else
    let own = t.writes.(p).(w + 1) in
    if own <> v then
      fail t
        (Fmt.str "p%d read %d from x%d shadowed by its own write of %d" p v x
           own)

let step t e =
  match e with
  | Event.Inv (p, inv) ->
      check_id "process" p;
      (match inv with
      | Event.Read x | Event.Write (x, _) -> check_id "t-variable" x
      | Event.Try_commit -> ());
      ensure_proc t p;
      let b = p * nf in
      if t.procs.(b + f_inv) <> k_none then
        invalid_arg "Monitor.step: pending invocation exists";
      (match inv with
      | Event.Read x ->
          set t (b + f_inv) k_read;
          set t (b + f_x) x
      | Event.Write (x, v) ->
          set t (b + f_inv) k_write;
          set t (b + f_x) x;
          set t (b + f_v) v
      | Event.Try_commit -> set t (b + f_inv) k_commit);
      open_txn t p
  | Event.Res (p, r) -> (
      let a = t.procs and b = p * nf in
      let k = if p >= 0 && p < t.np then a.(b + f_inv) else k_none in
      if k = k_none then
        invalid_arg "Monitor.step: response without invocation";
      let x = a.(b + f_x) and v = a.(b + f_v) in
      match r with
      | Event.Value got when k = k_read ->
          set t (b + f_inv) k_none;
          on_read t p x got
      | Event.Ok_written when k = k_write ->
          set t (b + f_inv) k_none;
          log_pair t t.writes p f_w1 x v
      | Event.Committed when k = k_commit ->
          set t (b + f_inv) k_none;
          finish_committed t p
      | Event.Aborted ->
          set t (b + f_inv) k_none;
          finish_aborted t p
      | Event.Value _ | Event.Ok_written | Event.Committed ->
          invalid_arg "Monitor.step: mismatched response")

type verdict = Accepted | No_witness of string

(* Whether [p]'s live transaction, if any, fails when closed out: a
   commit-pending one may be taken either way (committed-last or
   aborted); others are aborted. *)
let live_fails t p =
  let b = p * nf in
  let start = t.procs.(b + f_start) in
  not
    (start < 0
    || has_point t p ~lo:start ~hi:t.epoch
    || t.procs.(b + f_inv) = k_commit
       && has_point t p ~lo:t.epoch ~hi:t.epoch)

let live_failure p =
  No_witness
    (Fmt.str "live transaction of p%d has no consistent snapshot point" p)

(* Live transactions, lowest process first. *)
let rec first_bad t p =
  if p >= t.np then Accepted
  else if live_fails t p then live_failure p
  else first_bad t (p + 1)

let verdict t =
  match t.failed with Some msg -> No_witness msg | None -> first_bad t 0

(* Resuming.  Each domain keeps a monitor and, for each prefix of the
   last history it checked (up to [bound] events), a frame: that prefix's
   spine and the monitor's state after it.  While recording, a monitor's
   logs only grow along a history, its installs are logged, and each
   write to a process int pushes the int's index and old value onto the
   trail.  So a frame is the trail's length, the epoch, the install count
   and [np], plus the failure: restoring one pops the trail back to its
   length, writing each old value back (which clears the processes first
   seen since), and pops the versions installed since.  Nothing is
   allocated to save or restore a frame once the trail has grown.

   A frame also keeps its verdict by difference: the mask of the
   processes whose live transaction fails ([live_fails]), bit [p] for
   process [p], computed from its parent frame's mask and the one event
   between them (see [next_mask]).  The verdict is then the recorded
   failure, else the mask's lowest process, with no walk over the
   processes.

   Only histories of at most [bound] events whose new events use ids of
   at most [max_recorded_id] (processes: [max_recorded_proc], one mask
   bit each) are recorded, so every table a frame covers stays small.
   The others run from scratch, unrecorded, on the same monitor, which
   is then cleared and shrunk back. *)

let bound = 64
let max_recorded_id = 63
let max_recorded_proc = Sys.int_size - 1
let max_kept_log = 1024 (* ints: a longer log is dropped after a run *)

(* A frame's ints, at [i * frame_ints] in [frames.ints]. *)
let fr_trail = 0
let fr_epoch = 1
let fr_installs = 2
let fr_np = 3
let fr_failing = 4 (* the mask of processes whose live transaction fails *)
let frame_ints = 5

let bit p = 1 lsl p

(* The mask of the processes from [p] on whose live transaction fails. *)
let rec failing_from t p =
  if p >= t.np then 0
  else (if live_fails t p then bit p else 0) lor failing_from t (p + 1)

(* The failing mask after [e], stepped on [t], from the mask [mask]
   before it.  [live_fails q] reads [q]'s start epoch, pending
   invocation and read log, the epoch and the versions.
   - A commit may move the epoch and the versions: every live process
     is recomputed.
   - Any other event touches only its own process's ints and logs.
   - An invocation, or a write's [ok], cannot make a passing [p] fail:
     it opens a transaction with no reads (consistent at its start
     epoch), or only adds the commit-pending disjunct, or clears a
     pending write; it leaves the read log and the epoch alone.  So a
     clear bit stays clear, and an accepted parent (mask 0) recomputes
     nothing. *)
let next_mask t mask e =
  match e with
  | Event.Res (_, Event.Committed) -> failing_from t 0
  | (Event.Inv (p, _) | Event.Res (p, Event.Ok_written))
    when mask land bit p = 0 ->
      mask
  | Event.Inv (p, _) | Event.Res (p, _) ->
      if live_fails t p then mask lor bit p else mask land lnot (bit p)

(* The lowest process of a non-zero mask. *)
let rec lowest mask p = if mask land bit p <> 0 then p else lowest mask (p + 1)

type frames = {
  m : t;
  spine : Event.t list array;  (** frame [i]: its prefix, newest first *)
  failure : string option array;
  ints : int array;
      (** frame [i]: trail length, epoch, ninstalls, np, failing mask *)
  mutable valid : int;
      (** frames [0 .. valid-1] hold prefixes of one history *)
  mutable at : int;  (** the frame [m] is in, or -1 *)
}

let frames_key =
  Domain.DLS.new_key (fun () ->
      {
        m = make ~record:true;
        spine = Array.make (bound + 1) [];
        failure = Array.make (bound + 1) None;
        ints = Array.make ((bound + 1) * frame_ints) 0;
        valid = 1;
        at = 0;
      })

(* The failure is [None] at nearly every frame: it is stored only when
   it changed. *)
let save r i s ~failing =
  let m = r.m and a = r.ints and b = i * frame_ints in
  a.(b + fr_trail) <- m.ntrail;
  a.(b + fr_epoch) <- m.epoch;
  a.(b + fr_installs) <- m.ninstalls;
  a.(b + fr_np) <- m.np;
  a.(b + fr_failing) <- failing;
  r.spine.(i) <- s;
  if r.failure.(i) != m.failed then r.failure.(i) <- m.failed;
  r.valid <- i + 1

let restore r i =
  let m = r.m and a = r.ints and b = i * frame_ints in
  let mark = a.(b + fr_trail) in
  while m.ntrail > mark do
    let n = m.ntrail - 2 in
    m.procs.(m.trail.(n)) <- m.trail.(n + 1);
    m.ntrail <- n
  done;
  m.epoch <- a.(b + fr_epoch);
  while m.ninstalls > a.(b + fr_installs) do
    m.ninstalls <- m.ninstalls - 1;
    let x = m.installs.(m.ninstalls) in
    m.versions.(x) <- List.tl m.versions.(x)
  done;
  m.np <- a.(b + fr_np);
  if m.failed != r.failure.(i) then m.failed <- r.failure.(i);
  r.valid <- i + 1

(* Frame [i]'s verdict: [verdict r.m] when [r.m] is in frame [i]. *)
let frame_verdict r i =
  match r.failure.(i) with
  | Some msg -> No_witness msg
  | None ->
      let failing = r.ints.((i * frame_ints) + fr_failing) in
      if failing = 0 then Accepted else live_failure (lowest failing 0)

let rec drop s k = if k = 0 then s else drop (List.tl s) (k - 1)

(* The longest frame at most [i] whose prefix is [s], [s]'s length-[i]
   tail: frame 0, the empty prefix, always is. *)
let rec longest_prefix r i s =
  if r.spine.(i) == s then i else longest_prefix r (i - 1) (List.tl s)

let recordable_id i = 0 <= i && i <= max_recorded_id
let recordable_proc p = 0 <= p && p <= max_recorded_proc

(* Whether the [k] newest events of [s] can be recorded. *)
let rec recordable s k =
  k = 0
  ||
  match s with
  | [] -> true
  | e :: older ->
      (match e with
      | Event.Inv (p, (Event.Read x | Event.Write (x, _))) ->
          recordable_proc p && recordable_id x
      | Event.Inv (p, Event.Try_commit) | Event.Res (p, _) ->
          recordable_proc p)
      && recordable older (k - 1)

(* Step the [k] newest events of [s], oldest first, saving a frame after
   each: [s] is the spine of the prefix of length [n]. *)
let rec replay r s k n =
  if k > 0 then
    match s with
    | e :: older ->
        replay r older (k - 1) (n - 1);
        step r.m e;
        let parent = r.ints.(((n - 1) * frame_ints) + fr_failing) in
        save r n s ~failing:(next_mask r.m parent e)
    | [] -> ()

(* After an unrecorded run: back to frame 0, recording, with every table
   no larger than recording needs. *)
let release r =
  let m = r.m and small = max_recorded_id + 1 in
  if Array.length m.versions > small then m.versions <- [||]
  else Array.fill m.versions 0 (Array.length m.versions) initial_versions;
  if Array.length m.reads > small then begin
    m.procs <- new_procs 4;
    m.reads <- Array.make 4 [||];
    m.writes <- Array.make 4 [||]
  end
  else begin
    clear_procs m.procs 0 m.np;
    let trim logs =
      Array.iteri
        (fun p log -> if Array.length log > max_kept_log then logs.(p) <- [||])
        logs
    in
    trim m.reads;
    trim m.writes
  end;
  m.np <- 0;
  m.epoch <- 0;
  m.failed <- None;
  m.record <- true;
  r.at <- 0

let from_scratch r h =
  let m = r.m in
  restore r 0;
  m.record <- false;
  match
    History.iter (step m) h;
    verdict m
  with
  | v ->
      release r;
      v
  | exception e ->
      release r;
      raise e

let run h =
  let r = Domain.DLS.get frames_key in
  let n = History.length h and s = History.rev_events h in
  let i =
    if n > bound then 0
    else
      let i = Int.min n (r.valid - 1) in
      longest_prefix r i (drop s (n - i))
  in
  if n > bound || not (recordable s (n - i)) then from_scratch r h
  else begin
    if i <> r.at then restore r i;
    r.at <- -1;
    replay r s (n - i) n;
    r.at <- n;
    frame_verdict r n
  end

module Tev = Tm_trace.Trace_event

let run_traced ~trace h =
  let emit e = trace.Tm_trace.Sink.emit e in
  let t = create () in
  let i = ref 0 in
  History.iter
    (fun e ->
      let epoch_before = t.epoch and failed_before = t.failed in
      step t e;
      (* The monitor's clock is the history-event index, the same step
         clock the runner's trace uses: streamed monitor events line up
         with the runner's spans. *)
      if t.epoch <> epoch_before then
        emit (Tev.counter ~ts:!i ~tid:(Event.proc e) Tev.Monitor "epoch" t.epoch);
      (match (failed_before, t.failed) with
      | None, Some msg ->
          emit
            (Tev.instant ~ts:!i ~tid:(Event.proc e) Tev.Monitor "no-witness"
               [ ("msg", Tev.Str msg) ])
      | _ -> ());
      incr i)
    h;
  let v = verdict t in
  let args =
    match v with
    | Accepted -> [ ("result", Tev.Str "accepted") ]
    | No_witness msg ->
        [ ("result", Tev.Str "no-witness"); ("msg", Tev.Str msg) ]
  in
  emit (Tev.instant ~ts:!i ~tid:0 Tev.Monitor "verdict" args);
  v
