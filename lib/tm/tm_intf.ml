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
    number of polls, possibly with an abort. *)

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

  val copy : t -> t
  (** [copy t] is an independent instance in the same state as [t]: the
      same pending invocations, transactions, locks and committed store,
      so the same future [invoke]/[poll] sequence yields the same
      responses on either.  No mutable block is shared between the two —
      mutating one never shows in the other.  Sharing {e within} an
      instance is kept: if two fields of [t] reference one mutable block
      (OSTM's commit descriptors sit both in the t-variable holders and
      in their transaction), the copy's two fields reference one copied
      block.  Immutable values (lists, the config, a contention-manager
      policy) may be shared.  The exhaustive model checker relies on this
      to expand a schedule node with at most one [copy] and one action.
      It copies the parent's TM for each child except two kinds: the
      last child takes the parent's instance, and an invocation at the
      last level needs no TM. *)
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

(** Shared per-process pending-invocation bookkeeping. *)
module Mailbox = struct
  type t = Event.invocation option array

  let create cfg : t = Array.make (cfg.nprocs + 1) None

  let check_range cfg p (inv : Event.invocation) =
    if p < 1 || p > cfg.nprocs then
      invalid_arg (Fmt.str "process p%d out of range" p);
    match Event.tvar_of_invocation inv with
    | Some x when x < 0 || x >= cfg.ntvars ->
        invalid_arg (Fmt.str "t-variable x%d out of range" x)
    | Some _ | None -> ()

  let put (m : t) p inv =
    match m.(p) with
    | Some _ ->
        invalid_arg
          (Fmt.str "process p%d already has a pending invocation" p)
    | None -> m.(p) <- Some inv

  let get (m : t) p = m.(p)
  let clear (m : t) p = m.(p) <- None
  let copy : t -> t = Array.copy
end
