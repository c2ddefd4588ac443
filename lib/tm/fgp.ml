open Tm_history

type t = {
  cfg : Tm_intf.config;
  mail : Tm_intf.Mailbox.t;
  status : [ `C | `A ] array;  (** Status.(k) for k in 1..nprocs *)
  cp : bool array;  (** CP membership *)
  vals : int array array;  (** Val.(k).(j): pk's view of xj *)
  committed : int array;  (** last committed snapshot, for abort delivery *)
}

let name = "fgp"

let describe =
  "the paper's Section-6 automaton: first committer of each concurrent \
   group wins, everyone else in the group aborts (opacity + global \
   progress in any fault-prone system)"

let create cfg =
  {
    cfg;
    mail = Tm_intf.Mailbox.create cfg;
    status = Array.make (cfg.nprocs + 1) `C;
    cp = Array.make (cfg.nprocs + 1) false;
    vals = Array.make_matrix (cfg.nprocs + 1) cfg.ntvars 0;
    committed = Array.make cfg.ntvars 0;
  }

(* Invocations enter the mailbox and add their process to CP; a write also
   updates the process's view immediately, exactly as in the paper's
   transition rules. *)
let invoke t p inv =
  Tm_intf.Mailbox.check_range t.cfg p inv;
  Tm_intf.Mailbox.put t.mail p inv;
  t.cp.(p) <- true;
  match inv with
  | Event.Write (x, v) -> t.vals.(p).(x) <- v
  | Event.Read _ | Event.Try_commit -> ()

let deliver_abort t p =
  t.status.(p) <- `C;
  (* Repair (see .mli): discard the doomed transaction's buffered writes by
     resetting the view to the committed snapshot. *)
  Array.blit t.committed 0 t.vals.(p) 0 t.cfg.ntvars;
  Event.Aborted

let deliver_commit t p =
  (* Broadcast pk's view and doom the other members of the concurrent
     group (prose semantics; the formal rule's "every other process" is a
     known discrepancy, see .mli). *)
  Array.blit t.vals.(p) 0 t.committed 0 t.cfg.ntvars;
  for k = 1 to t.cfg.nprocs do
    if t.cp.(k) && k <> p then t.status.(k) <- `A;
    Array.blit t.committed 0 t.vals.(k) 0 t.cfg.ntvars
  done;
  Array.fill t.cp 0 (Array.length t.cp) false;
  Event.Committed

let poll t p =
  match Tm_intf.Mailbox.get t.mail p with
  | None -> None
  | Some inv ->
      let resp =
        match t.status.(p) with
        | `A -> deliver_abort t p
        | `C -> (
            match inv with
            | Event.Read x -> Event.Value t.vals.(p).(x)
            | Event.Write (_, _) -> Event.Ok_written
            | Event.Try_commit -> deliver_commit t p)
      in
      Tm_intf.Mailbox.clear t.mail p;
      Some resp

let pending t p = Tm_intf.Mailbox.get t.mail p

let copy t =
  {
    t with
    mail = Tm_intf.Mailbox.copy t.mail;
    status = Array.copy t.status;
    cp = Array.copy t.cp;
    vals = Array.map Array.copy t.vals;
    committed = Array.copy t.committed;
  }

type state = {
  s_status : [ `C | `A ] list;
  s_cp : Event.proc list;
  s_vals : int list list;
  s_pending : (Event.proc * Event.invocation option) list;
}

let state t =
  {
    s_status = List.init t.cfg.nprocs (fun k -> t.status.(k + 1));
    s_cp =
      List.filter (fun k -> t.cp.(k)) (List.init t.cfg.nprocs (fun k -> k + 1));
    s_vals = List.init t.cfg.nprocs (fun k -> Array.to_list t.vals.(k + 1));
    s_pending =
      List.init t.cfg.nprocs (fun k ->
          (k + 1, Tm_intf.Mailbox.get t.mail (k + 1)));
  }

let pp_state ppf s =
  let pp_status ppf = function `C -> Fmt.string ppf "c" | `A -> Fmt.string ppf "a" in
  let pp_pending ppf = function
    | _, None -> Fmt.string ppf "_"
    | _, Some i -> Event.pp_invocation ppf i
  in
  Fmt.pf ppf "(status=[%a] cp={%a} val=[%a] f=[%a])"
    Fmt.(list ~sep:(any "") pp_status)
    s.s_status
    Fmt.(list ~sep:(any ",") int)
    s.s_cp
    Fmt.(list ~sep:(any ";") (list ~sep:(any ",") int))
    s.s_vals
    Fmt.(list ~sep:(any ",") pp_pending)
    s.s_pending

type action = Invoke of Event.invocation | Poll

let actions t =
  match pending t 1 with
  | Some _ -> [ Poll ]
  | None ->
      [
        Invoke (Event.Read 0);
        Invoke (Event.Write (0, 0));
        Invoke (Event.Write (0, 1));
        Invoke Event.Try_commit;
      ]

let apply t = function
  | Invoke inv -> invoke t 1 inv
  | Poll -> ignore (poll t 1)
