(* Tutorial: implement your own TM with Tm_intf.Make and validate it with
   the library's pipeline — exhaustive schedule sweep + opacity monitor,
   the exact checker, and the Theorem-1 adversary.

   We write a plausible-looking TM with a classic bug (validation checks
   the read set only at commit, and reads return the current value without
   any snapshot check), let the pipeline find a minimal non-opaque
   schedule, then fix the bug and watch everything pass — including the
   adversary, which no fix can beat: p1 still starves, as Theorem 1
   demands.

   Run with: dune exec examples/custom_tm.exe *)

open Tm_history

(* A deferred-update TM with commit-time value validation.  The
   [read_time_validation] flag selects the buggy variant (no read-time
   consistency: a transaction can observe two different snapshots before
   it ever reaches commit). *)
module Make (Flag : sig
  val read_time_validation : bool
  val name : string
end) : Tm_impl.Tm_intf.S = struct
  type txn = {
    mutable reads : (Event.tvar * Event.value) list;
    mutable writes : (Event.tvar * Event.value) list;
  }

  (* The TM's state keeps its own [cfg] and [mail] (the pending
     invocation of each process). *)
  type t = {
    cfg : Tm_impl.Tm_intf.config;
    mail : Tm_impl.Tm_intf.Mailbox.t;
    store : int array;
    txns : txn array;
  }

  let reads_valid t txn =
    List.for_all (fun (x, v) -> t.store.(x) = v) txn.reads

  (* We write the state's life cycle and one bounded [step];
     [Tm_intf.Make] supplies [invoke], [poll] and [pending] around it:
     the range checks, the mailbox, one response per invocation. *)
  include Tm_impl.Tm_intf.Make (struct
    type nonrec t = t

    let name = Flag.name
    let describe = "tutorial TM (examples/custom_tm.ml)"

    let create cfg =
      {
        cfg;
        mail = Tm_impl.Tm_intf.Mailbox.create cfg;
        store = Array.make cfg.ntvars 0;
        txns =
          Array.init (cfg.nprocs + 1) (fun _ -> { reads = []; writes = [] });
      }

    (* The model checker expands each schedule node by blitting its
       parent into an instance of the same config, so a blit must leave
       [into] sharing no mutable block with the source: overwrite every
       array and every mutable record in place (the lists inside are
       immutable and may be shared). *)
    let blit t ~into =
      Tm_impl.Tm_intf.Mailbox.blit t.mail ~into:into.mail;
      Tm_impl.Tm_intf.blit_array t.store ~into:into.store;
      Array.iteri
        (fun p txn ->
          into.txns.(p).reads <- txn.reads;
          into.txns.(p).writes <- txn.writes)
        t.txns

    let cfg t = t.cfg
    let mail t = t.mail

    (* One step on p's pending invocation [inv]: [Some] answers it; a TM
       that must wait returns [None] and is polled again.  This one
       always answers. *)
    let step t p inv =
      let txn = t.txns.(p) in
      let reset () = t.txns.(p) <- { reads = []; writes = [] } in
      Some
        (match inv with
        | Event.Read x -> (
            match List.assoc_opt x txn.writes with
            | Some v -> Event.Value v
            | None ->
                (* THE BUG (when read_time_validation is false): return
                   the current value without checking that the reads so
                   far still hold, so two reads can come from two
                   different committed states. *)
                if Flag.read_time_validation && not (reads_valid t txn)
                then begin
                  reset ();
                  Event.Aborted
                end
                else begin
                  txn.reads <- (x, t.store.(x)) :: txn.reads;
                  Event.Value t.store.(x)
                end)
        | Event.Write (x, v) ->
            txn.writes <- (x, v) :: txn.writes;
            Event.Ok_written
        | Event.Try_commit ->
            if reads_valid t txn then begin
              List.iter (fun (x, v) -> t.store.(x) <- v) (List.rev txn.writes);
              reset ();
              Event.Committed
            end
            else begin
              reset ();
              Event.Aborted
            end)
  end)
end

let entry_of (module M : Tm_impl.Tm_intf.S) =
  {
    Tm_impl.Registry.entry_name = M.name;
    entry_describe = M.describe;
    impl = (module M);
    responsive = true;
  }

let buggy =
  entry_of
    (module Make (struct
      let read_time_validation = false
      let name = "tutorial-buggy"
    end))

let fixed =
  entry_of
    (module Make (struct
      let read_time_validation = true
      let name = "tutorial-fixed"
    end))

(* The validation pipeline: the exhaustive opacity screen (monitor,
   exact checker on fallback) over two t-variables; returns the number
   of schedules checked and the first non-opaque history found. *)
let validate entry ~depth =
  let s = Tm_sim.Sweep.Exhaustive.screen entry ~ntvars:2 ~depth in
  (s.checked, List.nth_opt s.non_opaque 0)

let () =
  Fmt.pr "== validating %s ==@." buggy.Tm_impl.Registry.entry_name;
  let checked, cex = validate buggy ~depth:8 in
  (match cex with
  | None -> Fmt.pr "no counterexample in %d schedules (unexpected!)@." checked
  | Some h ->
      Fmt.pr "NON-OPAQUE history found after %d schedules:@.%a@." checked
        Pretty.pp_by_process h;
      Fmt.pr
        "the transaction reads two different committed states — the classic \
         inconsistent-snapshot bug.@.");
  Fmt.pr "@.== validating %s ==@." fixed.Tm_impl.Registry.entry_name;
  let checked, cex = validate fixed ~depth:8 in
  (match cex with
  | None -> Fmt.pr "all %d schedules opaque.@." checked
  | Some h ->
      Fmt.pr "unexpected counterexample:@.%a@." Pretty.pp_by_process h);
  (* And of course the adversary still wins — no fix can beat Theorem 1. *)
  let r =
    Tm_adversary.Adversary.run ~rounds:25 fixed
      Tm_adversary.Adversary.Algorithm_1
  in
  Fmt.pr
    "@.adversary vs the fixed TM: p1 commits %d times, p2 commits %d times \
     — local progress is impossible, as the paper proves.@."
    r.Tm_adversary.Adversary.victim_commits
    r.Tm_adversary.Adversary.winner_commits
