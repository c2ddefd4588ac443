open Tm_history

type txn = {
  mutable started : bool;
  mutable doomed : bool;
  mutable timestamp : int;  (** birth date; larger = younger *)
  mutable writes : (Event.tvar * Event.value) list;  (** latest first *)
}

type t = {
  cfg : Tm_intf.config;
  mail : Tm_intf.Mailbox.t;
  mutable time : int;
  value : int array;
  readers : bool array array;  (** readers.(x).(p) *)
  writer : Event.proc option array;
  txns : txn array;
  path : Event.proc array;
      (** scratch for [break_deadlock]'s chase, not state: [blit] leaves
          it alone *)
}

let fresh_txn () = { started = false; doomed = false; timestamp = 0; writes = [] }

let blit_txn txn ~into =
  into.started <- txn.started;
  into.doomed <- txn.doomed;
  into.timestamp <- txn.timestamp;
  into.writes <- txn.writes

let begin_if_needed t p =
  let txn = t.txns.(p) in
  if not txn.started then begin
    t.time <- t.time + 1;
    txn.started <- true;
    txn.doomed <- false;
    txn.timestamp <- t.time;
    txn.writes <- []
  end

let release_locks t p =
  for x = 0 to Array.length t.writer - 1 do
    t.readers.(x).(p) <- false;
    if Tm_intf.held_by p t.writer.(x) then t.writer.(x) <- None
  done

let deliver_abort t p =
  release_locks t p;
  t.txns.(p) <- fresh_txn ();
  Event.Aborted

(* A process other than [p] holding [x]'s write lock, or 0. *)
let other_writer t p x =
  match t.writer.(x) with Some q when q <> p -> q | Some _ | None -> 0

(* The first process from [q] on, other than [p], holding a read lock on
   [x], or 0. *)
let rec next_reader t p x q =
  if q > t.cfg.nprocs then 0
  else if q <> p && t.readers.(x).(q) then q
  else next_reader t p x (q + 1)

(* Whether other processes' locks prevent p's pending operation (its
   mailbox slot) from proceeding.  Its blockers are [x]'s writer, then,
   for a write, [x]'s readers in increasing order. *)
let blocked t p =
  match t.mail.(p) with
  | None | Some Event.Try_commit -> false
  | Some (Event.Read x) -> other_writer t p x <> 0
  | Some (Event.Write (x, _)) ->
      other_writer t p x <> 0 || next_reader t p x 1 <> 0

let rec on_path (path : Event.proc array) depth q =
  depth > 0 && (path.(depth - 1) = q || on_path path (depth - 1) q)

(* The youngest of [p], [q] and the chase's path, latest first: the
   first one met wins a tie. *)
let youngest t p depth q =
  let best = ref p in
  if t.txns.(q).timestamp > t.txns.(!best).timestamp then best := q;
  for i = depth - 1 downto 0 do
    let r = t.path.(i) in
    if t.txns.(r).timestamp > t.txns.(!best).timestamp then best := r
  done;
  !best

(* A depth-first chase from [q] along the waits-for graph, [path.(0 ..
   depth - 1)] the processes chased so far: the youngest transaction on
   the first cycle found (with the path that led to it), or 0. *)
let rec chase t p depth q =
  if on_path t.path depth q then youngest t p depth q
  else begin
    t.path.(depth) <- q;
    match t.mail.(q) with
    | None | Some Event.Try_commit -> 0
    | Some (Event.Read x) -> chase_writer t p (depth + 1) q x
    | Some (Event.Write (x, _)) ->
        let found = chase_writer t p (depth + 1) q x in
        if found <> 0 then found else chase_readers t p (depth + 1) q x 1
  end

and chase_writer t p depth q x =
  let w = other_writer t q x in
  if w = 0 then 0 else chase t p depth w

and chase_readers t p depth q x from =
  let r = next_reader t q x from in
  if r = 0 then 0
  else
    let found = chase t p depth r in
    if found <> 0 then found else chase_readers t p depth q x (r + 1)

(* Detect a waits-for cycle through p; if found, doom the youngest
   transaction on it.  Blocked processes wait for lock holders; a holder
   that is itself blocked extends the chain.  The graph is small: a
   depth-first chase suffices. *)
let break_deadlock t p =
  let victim = chase t p 0 p in
  if victim <> 0 then t.txns.(victim).doomed <- true

let rec install t = function
  | [] -> ()
  | (x, v) :: rest ->
      t.value.(x) <- v;
      install t rest

include Tm_intf.Make (struct
  type nonrec t = t

  let name = "twopl"

  let describe =
    "strict two-phase locking with waits-for deadlock detection (solo \
     progress only in crash-free and parasitic-free systems; blocking)"

  let create cfg =
    {
      cfg;
      mail = Tm_intf.Mailbox.create cfg;
      time = 0;
      value = Array.make cfg.ntvars 0;
      readers =
        Array.init cfg.ntvars (fun _ -> Array.make (cfg.nprocs + 1) false);
      writer = Array.make cfg.ntvars None;
      txns = Array.init (cfg.nprocs + 1) (fun _ -> fresh_txn ());
      path = Array.make (cfg.nprocs + 1) 0;
    }

  let blit t ~into =
    Tm_intf.Mailbox.blit t.mail ~into:into.mail;
    into.time <- t.time;
    Tm_intf.blit_array t.value ~into:into.value;
    for x = 0 to Array.length t.readers - 1 do
      Tm_intf.blit_array t.readers.(x) ~into:into.readers.(x)
    done;
    Tm_intf.blit_array t.writer ~into:into.writer;
    for p = 0 to Array.length t.txns - 1 do
      blit_txn t.txns.(p) ~into:into.txns.(p)
    done

  let cfg t = t.cfg
  let mail t = t.mail

  let step t p inv =
    begin_if_needed t p;
    let txn = t.txns.(p) in
    if txn.doomed then Tm_intf.answer (deliver_abort t p)
    else (
      match inv with
      | Event.Read x -> (
          match t.writer.(x) with
          | Some q when q <> p ->
              break_deadlock t p;
              None
          | Some _ | None ->
              t.readers.(x).(p) <- true;
              let v =
                match List.assoc_opt x txn.writes with
                | Some v -> v
                | None -> t.value.(x)
              in
              Tm_intf.value v)
      | Event.Write (x, v) ->
          if blocked t p then begin
            break_deadlock t p;
            None
          end
          else begin
            t.writer.(x) <- Some p;
            t.readers.(x).(p) <- false;
            txn.writes <- (x, v) :: txn.writes;
            Some Event.Ok_written
          end
      | Event.Try_commit ->
          (* Strictness: writes apply under the exclusive locks, which
             are only now released. *)
          install t (Tm_intf.write_set txn.writes);
          release_locks t p;
          t.txns.(p) <- fresh_txn ();
          Some Event.Committed)
end)
