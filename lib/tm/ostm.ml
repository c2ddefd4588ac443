open Tm_history

(* A commit descriptor.  Once published (by the first tryC poll) it contains
   everything needed to finish the commit, so any process can advance it —
   [advance] below is called both by the owner's polls and by helpers. *)
type phase =
  | Acquiring of (Event.tvar * Event.value) list  (** still to acquire *)
  | Checking of (Event.tvar * int) list
  | Writing of (Event.tvar * Event.value) list
  | Done of bool  (** success? *)

type descriptor = {
  d_rv : int;
  d_reads : (Event.tvar * int) list;
  d_writes : (Event.tvar * Event.value) list;  (** canonical order *)
  mutable d_wv : int;
  mutable d_phase : phase;
}

type txn = {
  mutable started : bool;
  mutable rv : int;
  mutable reads : (Event.tvar * int) list;
  mutable writes : (Event.tvar * Event.value) list;  (** latest first *)
  mutable desc : descriptor option;
}

type t = {
  cfg : Tm_intf.config;
  mail : Tm_intf.Mailbox.t;
  mutable clock : int;
  value : int array;
  version : int array;
  holder : descriptor option array;  (** in-flight commit holding the var *)
  txns : txn array;
}

let fresh_txn () =
  { started = false; rv = 0; reads = []; writes = []; desc = None }

let begin_if_needed t p =
  let txn = t.txns.(p) in
  if not txn.started then begin
    txn.started <- true;
    txn.rv <- t.clock;
    txn.reads <- [];
    txn.writes <- [];
    txn.desc <- None
  end

let release t d =
  for x = 0 to Array.length t.holder - 1 do
    match t.holder.(x) with
    | Some d' when d' == d -> t.holder.(x) <- None
    | Some _ | None -> ()
  done

(* One transition of a descriptor's commit procedure.  The owner performs
   one per poll (so a crash can strand a half-done commit); a process that
   finds a t-variable held by someone else's descriptor helps it to
   completion with [advance_full].  Helping cannot cycle because write sets
   are acquired in ascending t-variable order. *)
let rec advance_step t d =
  match d.d_phase with
  | Done _ -> ()
  | Acquiring [] ->
      t.clock <- t.clock + 1;
      d.d_wv <- t.clock;
      d.d_phase <- Checking d.d_reads
  | Acquiring ((x, _) :: rest) -> (
      match t.holder.(x) with
      | Some d' when d' != d ->
          (* Finish the other commit, then retry this acquisition on the
             next step. *)
          advance_full t d'
      | Some _ | None ->
          t.holder.(x) <- Some d;
          d.d_phase <- Acquiring rest)
  | Checking [] -> d.d_phase <- Writing d.d_writes
  | Checking ((x, _) :: rest) ->
      let held_by_other =
        match t.holder.(x) with Some d' -> d' != d | None -> false
      in
      if held_by_other || t.version.(x) > d.d_rv then begin
        release t d;
        d.d_phase <- Done false
      end
      else d.d_phase <- Checking rest
  | Writing [] ->
      release t d;
      d.d_phase <- Done true
  | Writing ((x, v) :: rest) ->
      t.value.(x) <- v;
      t.version.(x) <- d.d_wv;
      d.d_phase <- Writing rest

and advance_full t d =
  match d.d_phase with
  | Done _ -> ()
  | Acquiring _ | Checking _ | Writing _ ->
      advance_step t d;
      advance_full t d

let abort t p =
  (match t.txns.(p).desc with Some d -> release t d | None -> ());
  t.txns.(p) <- fresh_txn ();
  Event.Aborted

let commit t p =
  t.txns.(p) <- fresh_txn ();
  Event.Committed

include Tm_intf.Make (struct
  type nonrec t = t

  let name = "ostm"

  let describe =
    "OSTM-style lock-free TM: deferred updates, commit descriptors, helping \
     (global progress in any fault-prone system)"

  let create cfg =
    {
      cfg;
      mail = Tm_intf.Mailbox.create cfg;
      clock = 0;
      value = Array.make cfg.ntvars 0;
      version = Array.make cfg.ntvars 0;
      holder = Array.make cfg.ntvars None;
      txns = Array.init (cfg.nprocs + 1) (fun _ -> fresh_txn ());
    }

  (* A descriptor can sit in several holders and in its transaction at
     once; the memo (keyed by physical identity) maps each one to a single
     fresh copy so [into] keeps that aliasing. *)
  let blit t ~into =
    let memo = ref [] in
    let copy_desc = function
      | None -> None
      | Some d -> (
          match List.assq_opt d !memo with
          | Some d' -> Some d'
          | None ->
              let d' = { d with d_wv = d.d_wv } in
              memo := (d, d') :: !memo;
              Some d')
    in
    Tm_intf.Mailbox.blit t.mail ~into:into.mail;
    into.clock <- t.clock;
    Tm_intf.blit_array t.value ~into:into.value;
    Tm_intf.blit_array t.version ~into:into.version;
    for x = 0 to Array.length t.holder - 1 do
      into.holder.(x) <- copy_desc t.holder.(x)
    done;
    for p = 0 to Array.length t.txns - 1 do
      let txn = t.txns.(p) and txn' = into.txns.(p) in
      txn'.started <- txn.started;
      txn'.rv <- txn.rv;
      txn'.reads <- txn.reads;
      txn'.writes <- txn.writes;
      txn'.desc <- copy_desc txn.desc
    done

  let cfg t = t.cfg
  let mail t = t.mail

  let step t p inv =
    begin_if_needed t p;
    let txn = t.txns.(p) in
    match inv with
    | Event.Read x -> (
        match List.assoc_opt x txn.writes with
        | Some v -> Tm_intf.value v
        | None ->
            (* Help any in-flight commit holding x to completion, then
               read. *)
            (match t.holder.(x) with
            | Some d -> advance_full t d
            | None -> ());
            if t.version.(x) > txn.rv then Tm_intf.answer (abort t p)
            else begin
              txn.reads <- (x, t.version.(x)) :: txn.reads;
              Tm_intf.value t.value.(x)
            end)
    | Event.Write (x, v) ->
        txn.writes <- (x, v) :: txn.writes;
        Some Event.Ok_written
    | Event.Try_commit -> (
        match txn.desc with
        | None -> (
            match Tm_intf.write_set txn.writes with
            | [] ->
                (* Read-only: reads were validated against rv as they
                   happened. *)
                Tm_intf.answer (commit t p)
            | ws ->
                let d =
                  {
                    d_rv = txn.rv;
                    d_reads = txn.reads;
                    d_writes = ws;
                    d_wv = 0;
                    d_phase = Acquiring ws;
                  }
                in
                txn.desc <- Some d;
                (* One poll publishes the descriptor; the next drives it.
                   Helpers may finish it in between. *)
                None)
        | Some d -> (
            advance_step t d;
            match d.d_phase with
            | Done true -> Tm_intf.answer (commit t p)
            | Done false -> Tm_intf.answer (abort t p)
            | Acquiring _ | Checking _ | Writing _ -> None))
end)
