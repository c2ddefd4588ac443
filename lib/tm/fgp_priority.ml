open Tm_history

type t = {
  cfg : Tm_intf.config;
  mail : Tm_intf.Mailbox.t;
  status : [ `C | `A ] array;
  cp : bool array;
  vals : int array array;
  committed : int array;
}

let name = "fgp-priority"

let describe =
  "Fgp with a priority commit guard: a process commits only when no \
   higher-priority process is in the concurrent group (local progress for \
   the top-priority process; fault-prone only below the faulty rank)"

(* Smaller value = higher priority: the process identifier itself. *)
let priority_of (p : Event.proc) = p

let create cfg =
  {
    cfg;
    mail = Tm_intf.Mailbox.create cfg;
    status = Array.make (cfg.nprocs + 1) `C;
    cp = Array.make (cfg.nprocs + 1) false;
    vals = Array.make_matrix (cfg.nprocs + 1) cfg.ntvars 0;
    committed = Array.make cfg.ntvars 0;
  }

let invoke t p inv =
  Tm_intf.Mailbox.check_range t.cfg p inv;
  Tm_intf.Mailbox.put t.mail p inv;
  t.cp.(p) <- true;
  match inv with
  | Event.Write (x, v) -> t.vals.(p).(x) <- v
  | Event.Read _ | Event.Try_commit -> ()

let deliver_abort t p =
  t.status.(p) <- `C;
  t.cp.(p) <- false;
  Array.blit t.committed 0 t.vals.(p) 0 t.cfg.ntvars;
  Event.Aborted

let deliver_commit t p =
  Array.blit t.vals.(p) 0 t.committed 0 t.cfg.ntvars;
  for k = 1 to t.cfg.nprocs do
    if t.cp.(k) && k <> p then t.status.(k) <- `A;
    Array.blit t.committed 0 t.vals.(k) 0 t.cfg.ntvars
  done;
  Array.fill t.cp 0 (Array.length t.cp) false;
  Event.Committed

let higher_priority_active t p =
  let active = ref false in
  for k = 1 to t.cfg.nprocs do
    if k <> p && t.cp.(k) && priority_of k < priority_of p then active := true
  done;
  !active

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
            | Event.Try_commit ->
                if higher_priority_active t p then deliver_abort t p
                else deliver_commit t p)
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
