open Tm_history

type t = {
  cfg : Tm_intf.config;
  mail : Tm_intf.Mailbox.t;
  status : [ `C | `A ] array;  (** Status.(k) for k in 1..nprocs *)
  cp : bool array;  (** CP membership *)
  vals : int array array;  (** Val.(k).(j): pk's view of xj *)
  committed : int array;  (** last committed snapshot, for abort delivery *)
}

let deliver_abort ~priority t p =
  t.status.(p) <- `C;
  (* The priority variant also drops p from CP (see .mli). *)
  if priority then t.cp.(p) <- false;
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

(* Smaller value = higher priority: the process identifier itself. *)
let priority_of (p : Event.proc) = p

let higher_priority_active t p =
  let active = ref false in
  for k = 1 to t.cfg.nprocs do
    if k <> p && t.cp.(k) && priority_of k < priority_of p then active := true
  done;
  !active

let step ~priority t p inv =
  match t.status.(p) with
  | `A -> Tm_intf.answer (deliver_abort ~priority t p)
  | `C -> (
      match inv with
      | Event.Read x -> Tm_intf.value t.vals.(p).(x)
      | Event.Write (_, _) -> Tm_intf.answer Event.Ok_written
      | Event.Try_commit ->
          Tm_intf.answer
            (if priority && higher_priority_active t p then
               deliver_abort ~priority t p
             else deliver_commit t p))

(* The two variants share everything but their name and the [priority]
   rules of [step]. *)
module Variant (V : sig
  val priority : bool
end) =
struct
  include Tm_intf.Make (struct
    type nonrec t = t

    let name = if V.priority then "fgp-priority" else "fgp"

    let describe =
      if V.priority then
        "Fgp with a priority commit guard: a process commits only when no \
         higher-priority process is in the concurrent group (local \
         progress for the top-priority process; fault-prone only below \
         the faulty rank)"
      else
        "the paper's Section-6 automaton: first committer of each \
         concurrent group wins, everyone else in the group aborts \
         (opacity + global progress in any fault-prone system)"

    let create cfg =
      {
        cfg;
        mail = Tm_intf.Mailbox.create cfg;
        status = Array.make (cfg.nprocs + 1) `C;
        cp = Array.make (cfg.nprocs + 1) false;
        vals = Array.make_matrix (cfg.nprocs + 1) cfg.ntvars 0;
        committed = Array.make cfg.ntvars 0;
      }

    let blit t ~into =
      Tm_intf.Mailbox.blit t.mail ~into:into.mail;
      Tm_intf.blit_array t.status ~into:into.status;
      Tm_intf.blit_array t.cp ~into:into.cp;
      for k = 0 to Array.length t.vals - 1 do
        Tm_intf.blit_array t.vals.(k) ~into:into.vals.(k)
      done;
      Tm_intf.blit_array t.committed ~into:into.committed

    let cfg t = t.cfg
    let mail t = t.mail
    let step = step ~priority:V.priority
  end)

  (* An invocation adds its process to CP; a write also updates the
     process's view immediately, exactly as in the paper's transition
     rules. *)
  let invoke t p inv =
    invoke t p inv;
    t.cp.(p) <- true;
    match inv with
    | Event.Write (x, v) -> t.vals.(p).(x) <- v
    | Event.Read _ | Event.Try_commit -> ()
end

include Variant (struct
  let priority = false
end)

module Priority = struct
  type nonrec t = t

  include Variant (struct
    let priority = true
  end)
end

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
          (k + 1, pending t (k + 1)));
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
