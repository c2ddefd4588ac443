open Tm_history

type commit_phase = Idle | Acquiring of Event.tvar list

type txn = {
  mutable started : bool;
  mutable rv : int;
  mutable reads : (Event.tvar * int) list;  (** var, version that was read *)
  mutable writes : (Event.tvar * Event.value) list;  (** latest first *)
  mutable phase : commit_phase;
}

type t = {
  cfg : Tm_intf.config;
  mail : Tm_intf.Mailbox.t;
  mutable clock : int;
  versions : (int * Event.value) list array;
      (** per t-variable, newest first; always non-empty (starts at (0,0)) *)
  lock : Event.proc option array;
  txns : txn array;
}

let fresh_txn () =
  { started = false; rv = 0; reads = []; writes = []; phase = Idle }

let blit_txn txn ~into =
  into.started <- txn.started;
  into.rv <- txn.rv;
  into.reads <- txn.reads;
  into.writes <- txn.writes;
  into.phase <- txn.phase

let begin_if_needed t p =
  let txn = t.txns.(p) in
  if not txn.started then begin
    txn.started <- true;
    txn.rv <- t.clock;
    txn.reads <- [];
    txn.writes <- [];
    txn.phase <- Idle
  end

(* Newest version no newer than the snapshot: always exists because
   version 0 of everything is the initial value. *)
let read_at t x rv =
  let rec find = function
    | [] -> assert false
    | (ver, v) :: rest -> if ver <= rv then (ver, v) else find rest
  in
  find t.versions.(x)

let latest_version t x =
  match t.versions.(x) with (ver, _) :: _ -> ver | [] -> assert false

let locked_by_other t p x =
  match t.lock.(x) with Some q -> q <> p | None -> false

let release_acquired t p =
  Array.iteri
    (fun x o -> if Tm_intf.held_by p o then t.lock.(x) <- None)
    t.lock

let abort t p =
  release_acquired t p;
  t.txns.(p) <- fresh_txn ();
  Event.Aborted

let write_set txn =
  List.sort_uniq Int.compare (List.map fst txn.writes)
  |> List.map (fun x -> (x, List.assoc x txn.writes))

let commit_step t p =
  let txn = t.txns.(p) in
  match txn.phase with
  | Idle -> (
      match write_set txn with
      | [] ->
          (* Read-only: the snapshot is consistent by construction. *)
          t.txns.(p) <- fresh_txn ();
          Some Event.Committed
      | ws ->
          txn.phase <- Acquiring (List.map fst ws);
          None)
  | Acquiring [] ->
      (* First-committer-wins: every read must still be of the latest
         version, else a concurrent commit invalidated the snapshot the
         writes were computed from.  Installation is a single atomic step:
         a multi-step install would let a reader whose snapshot is the new
         clock value observe half of this commit. *)
      let valid =
        List.for_all (fun (x, ver) -> latest_version t x = ver) txn.reads
      in
      if not valid then Tm_intf.answer (abort t p)
      else begin
        t.clock <- t.clock + 1;
        let wv = t.clock in
        List.iter
          (fun (x, v) -> t.versions.(x) <- (wv, v) :: t.versions.(x))
          (write_set txn);
        release_acquired t p;
        t.txns.(p) <- fresh_txn ();
        Some Event.Committed
      end
  | Acquiring (x :: rest) ->
      if locked_by_other t p x then Tm_intf.answer (abort t p)
      else begin
        t.lock.(x) <- Some p;
        txn.phase <- Acquiring rest;
        None
      end

include Tm_intf.Make (struct
  type nonrec t = t

  let name = "mvstm"

  let describe =
    "multiversion: reads never abort (snapshot at transaction start), \
     first-committer-wins validation for writers"

  let create cfg =
    {
      cfg;
      mail = Tm_intf.Mailbox.create cfg;
      clock = 0;
      versions = Array.make cfg.ntvars [ (0, 0) ];
      lock = Array.make cfg.ntvars None;
      txns = Array.init (cfg.nprocs + 1) (fun _ -> fresh_txn ());
    }

  let blit t ~into =
    Tm_intf.Mailbox.blit t.mail ~into:into.mail;
    into.clock <- t.clock;
    Tm_intf.blit_array t.versions ~into:into.versions;
    Tm_intf.blit_array t.lock ~into:into.lock;
    for p = 0 to Array.length t.txns - 1 do
      blit_txn t.txns.(p) ~into:into.txns.(p)
    done

  let cfg t = t.cfg
  let mail t = t.mail

  let step t p inv =
    begin_if_needed t p;
    let txn = t.txns.(p) in
    match inv with
    | Event.Read x -> (
        match List.assoc_opt x txn.writes with
        | Some v -> Tm_intf.answer (Event.Value v)
        | None ->
            let ver, v = read_at t x txn.rv in
            txn.reads <- (x, ver) :: txn.reads;
            Tm_intf.answer (Event.Value v))
    | Event.Write (x, v) ->
        txn.writes <- (x, v) :: txn.writes;
        Some Event.Ok_written
    | Event.Try_commit -> commit_step t p
end)
