open Tm_history

type t = {
  cfg : Tm_intf.config;
  mail : Tm_intf.Mailbox.t;
  store : int array;  (** current values; only the lock holder touches them *)
  mutable owner : Event.proc option;
  queue : Event.proc Queue.t;  (** FIFO of processes waiting for the lock *)
  waiting : bool array;  (** waiting.(p): p is already enqueued *)
}

let holds_lock t p = Tm_intf.held_by p t.owner

(* Hand the lock to the next waiter, if any. *)
let release t =
  t.owner <- None;
  match Queue.take_opt t.queue with
  | None -> ()
  | Some q ->
      t.waiting.(q) <- false;
      t.owner <- Some q

let try_acquire t p =
  match t.owner with
  | Some q when q = p -> true
  | Some _ ->
      if not t.waiting.(p) then begin
        t.waiting.(p) <- true;
        Queue.add p t.queue
      end;
      false
  | None ->
      t.owner <- Some p;
      true

include Tm_intf.Make (struct
  type nonrec t = t

  let name = "global-lock"

  let describe =
    "single fair global lock; never aborts; blocks while the lock is held \
     (local progress iff crash-free and parasitic-free)"

  let create cfg =
    {
      cfg;
      mail = Tm_intf.Mailbox.create cfg;
      store = Array.make cfg.ntvars 0;
      owner = None;
      queue = Queue.create ();
      waiting = Array.make (cfg.nprocs + 1) false;
    }

  let blit t ~into =
    Tm_intf.Mailbox.blit t.mail ~into:into.mail;
    Tm_intf.blit_array t.store ~into:into.store;
    if into.owner != t.owner then into.owner <- t.owner;
    Queue.clear into.queue;
    Queue.iter (fun p -> Queue.add p into.queue) t.queue;
    Tm_intf.blit_array t.waiting ~into:into.waiting

  let cfg t = t.cfg
  let mail t = t.mail

  let step t p inv =
    if not (holds_lock t p || try_acquire t p) then None
    else
      match inv with
      | Event.Read x -> Tm_intf.value t.store.(x)
      | Event.Write (x, v) ->
          t.store.(x) <- v;
          Tm_intf.answer Event.Ok_written
      | Event.Try_commit ->
          release t;
          Tm_intf.answer Event.Committed
end)
