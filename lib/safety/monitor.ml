open Tm_history

(* Epoch = number of commits applied so far.  The committed value of a
   t-variable during epoch interval [from, next_from) is recorded in a
   newest-first version list; every t-variable implicitly starts with
   (0, 0).

   Reads are recorded and evaluated lazily when the transaction finishes:
   by then the version history covers the transaction's whole lifetime, so
   the set of epochs at which the entire read set is simultaneously
   consistent is exact.

   The tables are arrays indexed by t-variable and by process, grown on
   demand.  A process gets its transaction record on its first event and
   reuses it from one transaction to the next, [live] marking whether one
   is open; until then its slot holds the shared, never-live [no_txn]. *)

type txn = {
  mutable live : bool;
  mutable start_epoch : int;
  mutable reads : (Event.tvar * Event.value) list;  (** non-own reads *)
  mutable writes : (Event.tvar * Event.value) list;  (** latest first *)
  mutable commit_pending : bool;
}

type t = {
  mutable epoch : int;
  mutable versions : (int * Event.value) list array;  (** by t-variable *)
  mutable pending : Event.invocation option array;  (** by process *)
  mutable txns : txn array;  (** by process *)
  mutable failed : string option;
}

let initial_versions = [ (0, 0) ]

let no_txn =
  {
    live = false;
    start_epoch = 0;
    reads = [];
    writes = [];
    commit_pending = false;
  }

(* Processes 0..3 fit without growing. *)
let create () =
  {
    epoch = 0;
    versions = [||];
    pending = Array.make 4 None;
    txns = Array.make 4 no_txn;
    failed = None;
  }

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
  let n = Array.length t.txns in
  if p >= n then begin
    let m = capacity n p in
    let pending = Array.make m None and txns = Array.make m no_txn in
    Array.blit t.pending 0 pending 0 n;
    Array.blit t.txns 0 txns 0 n;
    t.pending <- pending;
    t.txns <- txns
  end

(* Whether some epoch in [lo, hi] lets every read in [reads] see its value
   in the committed store: a depth-first walk that picks, read by read, a
   version segment holding the read value and narrows [lo, hi] to it. *)
let rec consistent t lo hi = function
  | [] -> true
  | (x, v) :: rest -> segments t lo hi v rest max_int (versions_of t x)

(* The segments of one t-variable, newest first; [upper] is the last
   epoch of the first one.  Older segments end earlier still, so the walk
   stops at the first segment that ends before [lo]. *)
and segments t lo hi v rest upper = function
  | [] -> false
  | (from, value) :: older ->
      upper >= lo
      && ((value = v
          &&
          let a = Int.max from lo and b = Int.min upper hi in
          a <= b && consistent t a b rest)
         || segments t lo hi v rest (from - 1) older)

let has_point t txn ~lo ~hi = consistent t lo hi txn.reads

let txn_of t p =
  let txn = t.txns.(p) in
  if txn == no_txn then begin
    let txn = { no_txn with live = true; start_epoch = t.epoch } in
    t.txns.(p) <- txn;
    txn
  end
  else begin
    if not txn.live then begin
      txn.live <- true;
      txn.start_epoch <- t.epoch;
      txn.reads <- [];
      txn.writes <- [];
      txn.commit_pending <- false
    end;
    txn
  end

let fail t msg = if t.failed = None then t.failed <- Some msg

let finish_aborted t p txn =
  if not (has_point t txn ~lo:txn.start_epoch ~hi:t.epoch) then
    fail t
      (Fmt.str "aborted transaction of p%d has no consistent snapshot point"
         p);
  txn.live <- false

(* Install a committed writer's final value per variable.  [writes] is
   latest-first, so the first write met for a variable is its final value;
   a variable whose newest version is already at the current epoch was
   installed by this commit. *)
let rec install t = function
  | [] -> ()
  | (x, v) :: rest ->
      (match versions_of t x with
      | (from, _) :: _ when from = t.epoch -> ()
      | vs -> set_versions t x ((t.epoch, v) :: vs));
      install t rest

let finish_committed t p txn =
  (match txn.writes with
  | [] ->
      if not (has_point t txn ~lo:txn.start_epoch ~hi:t.epoch) then
        fail t
          (Fmt.str
             "read-only committed transaction of p%d has no consistent \
              snapshot point"
             p)
  | writes ->
      (* A committed writer serializes at its commit instant: the reads
         must be consistent with the current committed store. *)
      if not (has_point t txn ~lo:t.epoch ~hi:t.epoch) then
        fail t
          (Fmt.str
             "committed transaction of p%d is not consistent at its commit \
              instant"
             p);
      t.epoch <- t.epoch + 1;
      install t writes);
  txn.live <- false

let step t e =
  match e with
  | Event.Inv (p, inv) -> (
      check_id "process" p;
      (match inv with
      | Event.Read x | Event.Write (x, _) -> check_id "t-variable" x
      | Event.Try_commit -> ());
      ensure_proc t p;
      match t.pending.(p) with
      | Some _ -> invalid_arg "Monitor.step: pending invocation exists"
      | None ->
          t.pending.(p) <- Some inv;
          let txn = txn_of t p in
          if inv = Event.Try_commit then txn.commit_pending <- true)
  | Event.Res (p, r) -> (
      let inv =
        match
          if p >= 0 && p < Array.length t.pending then t.pending.(p) else None
        with
        | Some i -> i
        | None -> invalid_arg "Monitor.step: response without invocation"
      in
      t.pending.(p) <- None;
      let txn = txn_of t p in
      txn.commit_pending <- false;
      match (inv, r) with
      | Event.Read x, Event.Value v -> (
          match List.assoc_opt x txn.writes with
          | Some own ->
              if own <> v then
                fail t
                  (Fmt.str
                     "p%d read %d from x%d shadowed by its own write of %d"
                     p v x own)
          | None -> txn.reads <- (x, v) :: txn.reads)
      | Event.Write (x, v), Event.Ok_written ->
          txn.writes <- (x, v) :: txn.writes
      | Event.Try_commit, Event.Committed -> finish_committed t p txn
      | _, Event.Aborted -> finish_aborted t p txn
      | (Event.Read _ | Event.Write _ | Event.Try_commit), _ ->
          invalid_arg "Monitor.step: mismatched response")

type verdict = Accepted | No_witness of string

(* Close out live transactions, lowest process first: commit-pending ones
   may be taken either way (committed-last or aborted); others are
   aborted. *)
let verdict t =
  match t.failed with
  | Some msg -> No_witness msg
  | None ->
      let rec first_bad p =
        if p >= Array.length t.txns then Accepted
        else
          let txn = t.txns.(p) in
          let ok =
            (not txn.live)
            || has_point t txn ~lo:txn.start_epoch ~hi:t.epoch
            || (txn.commit_pending && has_point t txn ~lo:t.epoch ~hi:t.epoch)
          in
          if ok then first_bad (p + 1)
          else
            No_witness
              (Fmt.str
                 "live transaction of p%d has no consistent snapshot point" p)
      in
      first_bad 0

let run h =
  let t = create () in
  List.iter (step t) (History.events h);
  verdict t

module Tev = Tm_trace.Trace_event

let run_traced ~trace h =
  let emit e = trace.Tm_trace.Sink.emit e in
  let t = create () in
  let i = ref 0 in
  List.iter
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
    (History.events h);
  let v = verdict t in
  let args =
    match v with
    | Accepted -> [ ("result", Tev.Str "accepted") ]
    | No_witness msg ->
        [ ("result", Tev.Str "no-witness"); ("msg", Tev.Str msg) ]
  in
  emit (Tev.instant ~ts:!i ~tid:0 Tev.Monitor "verdict" args);
  v
