open Tm_history

(** The common interface of every TM implementation in the zoo.

    The paper models a TM as an I/O automaton receiving invocation events
    and emitting response events, with the interleaving chosen by an
    adversarial scheduler.  We mirror that as a micro-step discipline:

    - {!module-type-S.invoke} submits an invocation on behalf of a process
      (which must not already have one pending);
    - {!module-type-S.poll} lets the TM perform {e one bounded internal
      step} on behalf of that process and possibly deliver its response.

    Everything a real TM does between an invocation and its response —
    acquiring locks, validating read sets, writing back, helping — happens
    inside [poll] calls, one bounded step per call.  A {e crashed} process
    is simply never polled again, so whatever its in-flight operation holds
    (an encounter-time lock, a commit-lock) stays held; this is what makes
    the progress taxonomy of Section 3.2.3 observable.  A {e blocking} TM
    (e.g. the global-lock TM) returns [None] from [poll] until it can
    answer; a {e responsive} TM answers every invocation within a bounded
    number of polls, possibly with an abort.

    Both sides of this protocol are written once, here.  A zoo member
    writes only its {!module-type-STEP} — its state, with its own [cfg]
    and [mail] fields, and one bounded [step] — and {!Make} turns it into
    an {!module-type-S}; the runners drive any {!instance} with {!call}
    (one synchronous operation) or {!replay} (a history, event by
    event). *)

type config = {
  nprocs : int;  (** number of processes, named 1..nprocs *)
  ntvars : int;  (** number of t-variables, named 0..ntvars-1 *)
  seed : int;  (** seed for any randomized policy (contention managers) *)
}

let config ?(seed = 0) ~nprocs ~ntvars () = { nprocs; ntvars; seed }

module type S = sig
  type t

  val name : string
  val describe : string

  val create : config -> t

  val invoke : t -> Event.proc -> Event.invocation -> unit
  (** Submit an invocation.  @raise Invalid_argument if the process already
      has a pending invocation or the process/t-variable is out of range. *)

  val poll : t -> Event.proc -> Event.response option
  (** One bounded internal step for this process; [Some r] delivers the
      response to its pending invocation.  [None] when the process has no
      pending invocation. *)

  val pending : t -> Event.proc -> Event.invocation option

  val blit : t -> into:t -> unit
  (** {!module-type-STEP.blit}: [blit src ~into] puts [into] in [src]'s
      state. *)

  val copy : t -> t
  (** [copy t] is a fresh instance of [t]'s config with [t] blitted into
      it: an independent instance in the same state, sharing no mutable
      block with [t].  {!pack} and the reachable-state graph copy; the
      exhaustive model checker blits into one instance per tree level. *)
end

(** [held_by p o]: whether the owner slot [o] (a lock's holder, a
    t-variable's owner) is process [p].  A match: [o = Some p] would
    allocate the option and call the polymorphic compare on every poll. *)
let held_by p = function Some (q : Event.proc) -> q = p | None -> false

(** [release p owners] empties every slot of [owners] (the locks or
    ownerships of the t-variables) that [p] holds. *)
let release p (owners : Event.proc option array) =
  for x = 0 to Array.length owners - 1 do
    if held_by p owners.(x) then owners.(x) <- None
  done

(** [values_hold values reads]: every [(x, v)] of a value-based read set
    still holds, [values.(x) = v]. *)
let rec values_hold (values : Event.value array) = function
  | [] -> true
  | (x, v) :: rest -> values.(x) = v && values_hold values rest

(** [blit_array a ~into] overwrites [into] with [a] (of the same length).
    The elements are shared, so they must be immediates or immutable
    values, as in every array a zoo member blits.  An element is stored
    only where [into]'s is not already physically the same: a
    model-check child usually differs from the sibling blitted before it
    in a field or two, and each skipped store saves a [caml_modify].
    The C call of [Array.blit] cost more than this loop over a small
    instance's 1-3 elements. *)
let blit_array a ~into =
  for i = 0 to Array.length a - 1 do
    let v = Array.unsafe_get a i in
    if Array.unsafe_get into i != v then Array.unsafe_set into i v
  done

(** Shared per-process pending-invocation bookkeeping.  [put] stores a
    shared [Some] for [Try_commit] and for reads of the t-variables
    0..63, so only a write, or a read of a larger t-variable, allocates
    its slot's option. *)
module Mailbox = struct
  type t = Event.invocation option array

  let some_read = Array.init 64 (fun x -> Some (Event.Read x))
  let some_try_commit = Some Event.Try_commit

  let create cfg : t = Array.make (cfg.nprocs + 1) None

  let check_range cfg p (inv : Event.invocation) =
    if p < 1 || p > cfg.nprocs then
      invalid_arg (Fmt.str "process p%d out of range" p);
    match inv with
    | (Event.Read x | Event.Write (x, _)) when x < 0 || x >= cfg.ntvars ->
        invalid_arg (Fmt.str "t-variable x%d out of range" x)
    | Event.Read _ | Event.Write _ | Event.Try_commit -> ()

  let put (m : t) p inv =
    match m.(p) with
    | Some _ ->
        invalid_arg
          (Fmt.str "process p%d already has a pending invocation" p)
    | None ->
        m.(p) <-
          (match inv with
          | Event.Read x when x >= 0 && x < Array.length some_read ->
              some_read.(x)
          | Event.Try_commit -> some_try_commit
          | Event.Read _ | Event.Write _ -> Some inv)

  let get (m : t) p = m.(p)
  let clear (m : t) p = m.(p) <- None
  let blit (m : t) ~(into : t) = blit_array m ~into
end

let values = Array.init 64 (fun v -> Some (Event.Value v))

(** [value v] is [Some (Event.Value v)], shared rather than allocated for
    the values 0..63.  A read answers through it: [answer (Event.Value
    v)] would allocate the response it is passed. *)
let value v =
  if v >= 0 && v < Array.length values then values.(v)
  else Some (Event.Value v)

(** [own_value x writes] answers a read of [x] from the transaction's
    own writes [writes], latest first: [value v] for its latest write
    [(x, v)], or [None] when it has not written [x].  Unlike
    [List.assoc_opt], it allocates no option of its own. *)
let rec own_value x = function
  | [] -> None
  | ((y : Event.tvar), v) :: older ->
      if x = y then value v else own_value x older

(** [answer r] is [Some r], shared rather than allocated for the constant
    responses and for reads of the values 0..63: a [step] that answers
    [Some (abort t p)] allocates on every poll, [answer (abort t p)]
    does not. *)
let answer : Event.response -> Event.response option = function
  | Event.Committed -> Some Event.Committed
  | Event.Aborted -> Some Event.Aborted
  | Event.Ok_written -> Some Event.Ok_written
  | Event.Value v when v >= 0 && v < Array.length values -> values.(v)
  | Event.Value _ as r -> Some r

(** [write_set writes] is the write set of a transaction whose writes
    are [writes], latest first: one [(x, v)] per t-variable [x] written,
    [v] its latest value, in ascending order of [x].  One pass inserts
    each write, newest first, into the sorted result, so the first value
    met for [x] is kept.  The pairs are [writes]'s own, a write set of
    one write is [writes] itself, and a repeated write allocates
    nothing. *)
let write_set (writes : (Event.tvar * Event.value) list) =
  let rec insert (((x : Event.tvar), _) as w) = function
    | [] -> [ w ]
    | ((y, _) as w') :: rest as ws ->
        if x < y then w :: ws
        else if x = y then ws
        else
          let rest' = insert w rest in
          if rest' == rest then ws else w' :: rest'
  in
  match writes with
  | [] | [ _ ] -> writes
  | _ -> List.fold_left (fun ws w -> insert w ws) [] writes

(** The TM author's side of the protocol: the state, with the TM's own
    [cfg] and [mail] fields, and one bounded internal step. *)
module type STEP = sig
  type t

  val name : string
  val describe : string
  val create : config -> t

  val blit : t -> into:t -> unit
  (** [blit src ~into] overwrites every field of [into] with [src]'s
      state: the same pending invocations, transactions, locks and
      committed store, so the same future [invoke]/[poll] sequence yields
      the same responses on either.  [into] has [src]'s config and is not
      [src].  Afterwards no mutable block of [src] is reachable from
      [into], so mutating one never shows in the other: arrays and
      mutable records are overwritten in place, and a block that [into]
      has no counterpart for (an OSTM commit descriptor) is copied
      afresh.  Sharing {e within} an
      instance is kept: if two fields of [src] reference one mutable
      block (OSTM's commit descriptors sit both in the t-variable holders
      and in their transaction), [into]'s two fields reference one
      block.  Immutable values (lists, the config, a contention-manager
      policy) may be shared.  The exhaustive model checker relies on this
      to expand a schedule node with at most one [blit] and one action
      into the instance of the level below.

      [into] is most often the sibling of [src]'s last child, so most of
      its fields already hold [src]'s values.  A field or array element
      that holds an immutable value (a list, an option, a commit phase)
      may therefore be stored only when it differs physically, [if
      into.f != t.f then into.f <- t.f], as {!blit_array} does: a
      skipped store changes nothing, and the write barrier of an
      unchanged pointer field costs more than the test.  A field that
      holds a mutable block has no such shortcut: the block is
      overwritten in place or copied afresh (OSTM's descriptors,
      global-lock's waiter queue) as above. *)

  val cfg : t -> config
  val mail : t -> Mailbox.t

  val step : t -> Event.proc -> Event.invocation -> Event.response option
  (** One bounded internal step on [p]'s pending invocation [inv];
      [Some r] answers it. *)
end

(** The protocol, once for the whole zoo: [invoke] checks the range and
    fills the mailbox, [poll] steps the pending invocation and empties
    the mailbox exactly when [step] answers, so a process has at most one
    pending invocation and each gets one response. *)
module Make (M : STEP) : S with type t := M.t = struct
  include M

  let copy t =
    let t' = create (cfg t) in
    blit t ~into:t';
    t'

  let invoke t p inv =
    Mailbox.check_range (cfg t) p inv;
    Mailbox.put (mail t) p inv

  let pending t p = Mailbox.get (mail t) p

  let poll t p =
    let m = mail t in
    match Mailbox.get m p with
    | None -> None
    | Some inv -> (
        match step t p inv with
        | Some _ as answer ->
            Mailbox.clear m p;
            answer
        | None -> None)
end

(** A TM instance packed with its state, convenient for heterogeneous
    registries and runners. *)
type instance = {
  name : string;
  invoke : Event.proc -> Event.invocation -> unit;
  poll : Event.proc -> Event.response option;
  pending : Event.proc -> Event.invocation option;
  copy : unit -> instance;  (** {!module-type-S.copy}, packed *)
}

let pack (module M : S) cfg =
  let rec wrap t =
    {
      name = M.name;
      invoke = M.invoke t;
      poll = M.poll t;
      pending = M.pending t;
      copy = (fun () -> wrap (M.copy t));
    }
  in
  wrap (M.create cfg)

(* Poll [p] until the TM answers, at most [patience + 1] times. *)
let await inst ~patience p =
  let rec go n =
    if n > patience then None
    else match inst.poll p with Some _ as answer -> answer | None -> go (n + 1)
  in
  go 0

(** The client's side of the protocol: one synchronous operation.
    [call inst ~patience ~record p inv] invokes [inv] for [p] and polls
    [p] until the TM answers, at most [patience + 1] times; [None] when it
    does not.  [record] sees the invocation and the response events. *)
let call inst ~patience ~record p inv =
  record (Event.Inv (p, inv));
  inst.invoke p inv;
  match await inst ~patience p with
  | Some r as answer ->
      record (Event.Res (p, r));
      answer
  | None -> None

(** [replay inst ~patience h] walks [h] against [inst]: an [Inv] event
    invokes, and a [Res] event polls its process until it answers (at
    most [patience + 1] times).  Returns the history the TM produced,
    which stops at the first answer that differs from [h]'s, or before a
    response that never came; [h] is reproduced exactly when the result
    equals it. *)
let replay inst ~patience h =
  let rec walk acc = function
    | [] -> acc
    | (Event.Inv (p, inv) as e) :: rest ->
        inst.invoke p inv;
        walk (History.append acc e) rest
    | Event.Res (p, r) :: rest -> (
        match await inst ~patience p with
        | Some r' ->
            let acc = History.append acc (Event.Res (p, r')) in
            if r' = r then walk acc rest else acc
        | None -> acc)
  in
  walk History.empty (History.events h)
