(* Tests for the TM zoo: per-implementation semantics, the Figure 15/16
   reproductions for Fgp, opacity of simulated histories (with and without
   fault injection), and the Section-3.2.3 solo-progress matrix. *)

open Tm_history
module Reg = Tm_impl.Registry
module Intf = Tm_impl.Tm_intf

(* ------------------------------------------------------------------ *)
(* Helpers: drive a packed instance synchronously. *)

let op (inst : Intf.instance) p inv =
  match Intf.call inst ~patience:500 ~record:ignore p inv with
  | Some r -> r
  | None -> Alcotest.failf "operation blocked: %s" inst.Intf.name

let expect_value name r =
  match (r : Event.response) with
  | Event.Value v -> v
  | _ -> Alcotest.failf "%s: expected a value" name

(* ------------------------------------------------------------------ *)
(* Per-TM semantics smoke tests. *)

let test_sequential_semantics entry () =
  let inst = Reg.instance entry (Intf.config ~nprocs:2 ~ntvars:2 ()) in
  let name = entry.Reg.entry_name in
  (* Initial reads. *)
  Alcotest.(check int) (name ^ " initial") 0 (expect_value name (op inst 1 (Event.Read 0)));
  (* Write and read back inside the transaction. *)
  (match op inst 1 (Event.Write (0, 7)) with
  | Event.Ok_written -> ()
  | _ -> Alcotest.failf "%s: write failed" name);
  Alcotest.(check int)
    (name ^ " reads own write") 7
    (expect_value name (op inst 1 (Event.Read 0)));
  Alcotest.(check int)
    (name ^ " other var untouched") 0
    (expect_value name (op inst 1 (Event.Read 1)));
  (match op inst 1 Event.Try_commit with
  | Event.Committed -> ()
  | _ -> Alcotest.failf "%s: solo commit failed" name);
  (* The committed value is visible to the other process. *)
  Alcotest.(check int)
    (name ^ " committed value visible") 7
    (expect_value name (op inst 2 (Event.Read 0)));
  match op inst 2 Event.Try_commit with
  | Event.Committed -> ()
  | _ -> Alcotest.failf "%s: read-only commit failed" name

let test_abort_discards entry () =
  (* p1 writes but does not commit; p2 conflicts.  Whatever happens, no
     uncommitted value may ever be read by a committed transaction.  We
     check the weaker deterministic core: after p1's transaction aborts (we
     force an abort via conflict where possible), p2 reads the old value. *)
  let inst = Reg.instance entry (Intf.config ~nprocs:2 ~ntvars:1 ()) in
  let name = entry.Reg.entry_name in
  ignore (op inst 1 (Event.Read 0));
  (match op inst 1 (Event.Write (0, 5)) with
  | Event.Ok_written | Event.Aborted -> ()
  | _ -> Alcotest.failf "%s: unexpected write response" name);
  (* p1 commits; p2 then reads the committed value, whatever the TM decided. *)
  (match op inst 1 Event.Try_commit with
  | Event.Committed | Event.Aborted -> ()
  | _ -> Alcotest.failf "%s: unexpected commit response" name);
  let v = expect_value name (op inst 2 (Event.Read 0)) in
  Alcotest.(check bool)
    (name ^ " committed-or-initial value")
    true
    (v = 0 || v = 5)

let zoo_semantics_tests =
  List.concat_map
    (fun entry ->
      [
        Alcotest.test_case
          (entry.Reg.entry_name ^ " sequential semantics")
          `Quick
          (test_sequential_semantics entry);
        Alcotest.test_case
          (entry.Reg.entry_name ^ " visibility")
          `Quick (test_abort_discards entry);
      ])
    Reg.all

(* ------------------------------------------------------------------ *)
(* Figure 16: exact replay on Fgp. *)

let test_fig16_replay () =
  (* Fgp answers every poll, so each response is the first poll's. *)
  let cfg = Intf.config ~nprocs:3 ~ntvars:2 () in
  let fgp = Intf.pack (module Tm_impl.Fgp) cfg in
  let h = Intf.replay fgp ~patience:0 Figures.fig16 in
  Alcotest.(check bool)
    "replayed history equals Figure 16" true
    (History.equal h Figures.fig16);
  Alcotest.(check bool)
    "Figure 16 history is opaque" true
    (Tm_safety.Opacity.is_opaque h)

(* ------------------------------------------------------------------ *)
(* Figure 15: exhaustive enumeration of Fgp with one process and one
   binary t-variable yields exactly the paper's 10 states. *)

module Exh = Tm_sim.Sweep.Exhaustive

let test_fig15_enumeration () =
  let g = Exh.fig15 () in
  Alcotest.(check (pair bool int))
    "complete, with exactly the 10 states of Figure 15" (true, 10)
    (g.Exh.complete, List.length g.Exh.states)

(* No abort event is ever delivered (the paper: the single-process
   automaton has no abort transitions): every poll edge answers, and
   never with an abort. *)
let test_fig15_no_abort () =
  let polls = ref 0 in
  List.iter
    (fun (s, a, r, _) ->
      match (a, r) with
      | Exh.Invoke _, _ -> ()
      | Exh.Poll _, Some Event.Aborted ->
          Alcotest.failf "abort transition from %a" Tm_impl.Fgp.pp_state s
      | Exh.Poll _, Some _ -> incr polls
      | Exh.Poll _, None ->
          Alcotest.fail "a poll transition without a response")
    (Exh.fig15 ()).Exh.edges;
  Alcotest.(check bool) "poll transitions answered" true (!polls > 0)

let test_fgp_never_aborts_solo () =
  (* Stronger form of the Figure-15 claim: a single process never receives
     an abort from Fgp, whatever it does. *)
  let cfg = Intf.config ~nprocs:1 ~ntvars:2 () in
  let t = Tm_impl.Fgp.create cfg in
  let seen_abort = ref false in
  let g = Tm_sim.Prng.create 7 in
  for _ = 1 to 500 do
    (match Tm_impl.Fgp.pending t 1 with
    | Some _ -> (
        match Tm_impl.Fgp.poll t 1 with
        | Some Event.Aborted -> seen_abort := true
        | _ -> ())
    | None ->
        let inv =
          match Tm_sim.Prng.int g 4 with
          | 0 -> Event.Read (Tm_sim.Prng.int g 2)
          | 1 | 2 -> Event.Write (Tm_sim.Prng.int g 2, Tm_sim.Prng.int g 3)
          | _ -> Event.Try_commit
        in
        Tm_impl.Fgp.invoke t 1 inv)
  done;
  Alcotest.(check bool) "no abort ever" false !seen_abort

(* ------------------------------------------------------------------ *)
(* The two documented repairs to the paper's formal Fgp rules, validated:
   implementing the rules *literally* misbehaves exactly as predicted in
   lib/tm/fgp.mli and DESIGN.md. *)

(* A literal-rules Fgp: (1) on commit of pk, *every* other process gets
   status a (the formal rule), not just the concurrent group (the prose);
   (2) abort delivery does not reset the process's Val row (no committed
   snapshot is kept). *)
module Fgp_literal = struct
  type t = {
    cfg : Intf.config;
    mail : Intf.Mailbox.t;
    status : [ `C | `A ] array;
    cp : bool array;
    vals : int array array;
  }

  include Intf.Make (struct
    type nonrec t = t

    let name = "fgp-literal"
    let describe = "Fgp by the paper's formal rules, unrepaired"

    let create (cfg : Intf.config) =
      {
        cfg;
        mail = Intf.Mailbox.create cfg;
        status = Array.make (cfg.nprocs + 1) `C;
        cp = Array.make (cfg.nprocs + 1) false;
        vals = Array.make_matrix (cfg.nprocs + 1) cfg.ntvars 0;
      }

    let blit t ~into =
      Intf.Mailbox.blit t.mail ~into:into.mail;
      Intf.blit_array t.status ~into:into.status;
      Intf.blit_array t.cp ~into:into.cp;
      Array.iteri (fun k row -> Intf.blit_array row ~into:into.vals.(k)) t.vals

    let cfg t = t.cfg
    let mail t = t.mail

    let step t p inv =
      Some
        (match t.status.(p) with
        | `A ->
            t.status.(p) <- `C;
            (* Literal rule: Val' = Val — the aborted writes linger. *)
            Event.Aborted
        | `C -> (
            match inv with
            | Event.Read x -> Event.Value t.vals.(p).(x)
            | Event.Write _ -> Event.Ok_written
            | Event.Try_commit ->
                (* Literal rule: every other process gets status a. *)
                for k = 1 to t.cfg.nprocs do
                  if k <> p then t.status.(k) <- `A;
                  Array.blit t.vals.(p) 0 t.vals.(k) 0 t.cfg.ntvars
                done;
                Array.fill t.cp 0 (Array.length t.cp) false;
                Event.Committed))
  end)

  let invoke t p inv =
    invoke t p inv;
    t.cp.(p) <- true;
    match inv with
    | Event.Write (x, v) -> t.vals.(p).(x) <- v
    | Event.Read _ | Event.Try_commit -> ()
end

let test_literal_fgp_breaks_fig16 () =
  (* Under the literal every-other-process rule, p2 — which was *not*
     concurrent to p3's transaction — gets spuriously aborted, so the
     Figure 16 history cannot be produced: the paper's own example agrees
     with the prose, not with the formal rule (our implementation, which
     follows the prose, replays it exactly: test_fig16_replay). *)
  let t = Fgp_literal.create (Intf.config ~nprocs:3 ~ntvars:2 ()) in
  let x = 0 and y = 1 in
  let run p inv =
    Fgp_literal.invoke t p inv;
    Option.get (Fgp_literal.poll t p)
  in
  (* Prefix of the Figure-16 schedule. *)
  Fgp_literal.invoke t 2 (Event.Write (y, 1));
  ignore (run 1 (Event.Read x));
  ignore (run 1 (Event.Write (x, 1)));
  ignore (run 1 Event.Try_commit);
  ignore (Option.get (Fgp_literal.poll t 2)) (* p2's A, as in the figure *);
  ignore (run 3 (Event.Read y));
  ignore (run 3 (Event.Write (y, 1)));
  ignore (run 1 (Event.Read y));
  ignore (run 3 Event.Try_commit);
  ignore (run 1 Event.Try_commit) (* p1's A, as in the figure *);
  (* Figure 16 now has p2 reading y -> 1; the literal rule delivers A
     instead (p3's commit doomed p2 even though p2 had no transaction). *)
  let r = run 2 (Event.Read y) in
  Alcotest.(check bool)
    "literal rule spuriously aborts p2 (Figure 16 impossible)" true
    (r = Event.Aborted)

let test_literal_fgp_not_opaque () =
  (* Without the Val-reset-on-abort repair, a doomed process's buffered
     write survives its abort and is read back by its next transaction —
     a violation of opacity.  The sequence: p2 starts a transaction (so it
     is in the concurrent group), p1 commits (dooming p2), p2 invokes a
     write — which the literal write rule applies to Val unguarded — and
     receives the abort for it; p2's *next* transaction then reads its own
     aborted write. *)
  let play tm =
    let h = ref History.empty in
    let record e = h := History.append !h e in
    let run p inv = Option.get (Intf.call tm ~patience:0 ~record p inv) in
    ignore (run 2 (Event.Read 0)) (* p2 joins the concurrent group *);
    ignore (run 1 (Event.Read 0));
    ignore (run 1 (Event.Write (0, 1)));
    ignore (run 1 Event.Try_commit) (* p1 commits; p2 doomed *);
    let r1 = run 2 (Event.Write (0, 9)) in
    let r2 = run 2 (Event.Read 0) in
    (r1, r2, !h)
  in
  let cfg = Intf.config ~nprocs:2 ~ntvars:1 () in
  let r1, r2, h = play (Intf.pack (module Fgp_literal) cfg) in
  Alcotest.(check bool) "p2's write is aborted" true (r1 = Event.Aborted);
  Alcotest.(check bool) "p2 reads its own aborted write" true
    (r2 = Event.Value 9);
  Alcotest.(check bool) "the history is NOT opaque" false
    (Tm_safety.Opacity.is_opaque h);
  (* Our repaired Fgp returns the committed value instead. *)
  let _, r2, _ = play (Intf.pack (module Tm_impl.Fgp) cfg) in
  Alcotest.(check bool) "repaired Fgp reads the committed value" true
    (r2 = Event.Value 1)

(* ------------------------------------------------------------------ *)
(* Simulated runs: opacity, determinism, progress. *)

let run_spec entry spec = Tm_sim.Runner.run entry spec

let test_run_opaque_faultfree entry () =
  let spec =
    Tm_sim.Runner.spec ~nprocs:3 ~ntvars:2 ~steps:240 ~seed:42
      ~sched:Tm_sim.Runner.Uniform ()
  in
  let o = run_spec entry spec in
  Alcotest.(check bool)
    (entry.Reg.entry_name ^ " history well-formed")
    true
    (History.is_well_formed o.Tm_sim.Runner.history);
  Alcotest.(check bool)
    (entry.Reg.entry_name ^ " history opaque")
    true
    (Tm_safety.Opacity.is_opaque o.Tm_sim.Runner.history)

let test_run_opaque_faulty entry () =
  let spec =
    Tm_sim.Runner.spec ~nprocs:3 ~ntvars:2 ~steps:240 ~seed:11
      ~sched:Tm_sim.Runner.Uniform
      ~fates:
        [
          (1, Tm_sim.Runner.Crash_after_write 1);
          (2, Tm_sim.Runner.Parasitic_from 60);
        ]
      ()
  in
  let o = run_spec entry spec in
  Alcotest.(check bool)
    (entry.Reg.entry_name ^ " faulty history opaque")
    true
    (Tm_safety.Opacity.is_opaque o.Tm_sim.Runner.history)

let zoo_opacity_tests =
  List.concat_map
    (fun entry ->
      [
        Alcotest.test_case
          (entry.Reg.entry_name ^ " fault-free run opaque")
          `Quick
          (test_run_opaque_faultfree entry);
        Alcotest.test_case
          (entry.Reg.entry_name ^ " faulty run opaque")
          `Quick
          (test_run_opaque_faulty entry);
      ])
    Reg.all

let test_zoo_strict_serializability () =
  (* Opacity implies strict serializability; check the implication holds
     through the actual checkers on real zoo runs (committed projections
     also stay well-formed). *)
  List.iter
    (fun name ->
      let entry = Option.get (Reg.find name) in
      let spec =
        Tm_sim.Runner.spec ~nprocs:3 ~ntvars:2 ~steps:200 ~seed:21
          ~sched:Tm_sim.Runner.Uniform ()
      in
      let o = run_spec entry spec in
      let h = o.Tm_sim.Runner.history in
      Alcotest.(check bool)
        (name ^ " run strictly serializable")
        true
        (Tm_safety.Serializability.is_strictly_serializable h);
      Alcotest.(check bool)
        (name ^ " committed projection well-formed")
        true
        (History.is_well_formed
           (Tm_safety.Serializability.committed_projection h)))
    [ "fgp"; "tl2"; "tinystm"; "swisstm"; "mvstm"; "ostm" ]

let test_determinism () =
  let spec =
    Tm_sim.Runner.spec ~nprocs:3 ~ntvars:3 ~steps:500 ~seed:5
      ~sched:Tm_sim.Runner.Uniform ()
  in
  let entry = Option.get (Reg.find "tl2") in
  let o1 = run_spec entry spec in
  let o2 = run_spec entry spec in
  Alcotest.(check bool)
    "same spec, same history" true
    (History.equal o1.Tm_sim.Runner.history o2.Tm_sim.Runner.history)

let test_faultfree_everyone_commits entry () =
  let spec =
    Tm_sim.Runner.spec ~nprocs:3 ~ntvars:4 ~steps:3000 ~seed:3
      ~sched:Tm_sim.Runner.Uniform ()
  in
  let o = run_spec entry spec in
  for p = 1 to 3 do
    Alcotest.(check bool)
      (Fmt.str "%s: p%d commits in a fault-free run" entry.Reg.entry_name p)
      true
      (o.Tm_sim.Runner.commits.(p) > 0)
  done

let zoo_progress_tests =
  (* fgp-priority deliberately lets low-priority processes starve under an
     unfair scheduler (only the top priority has unconditional progress),
     so it gets its own dedicated tests below instead of this one. *)
  List.filter_map
    (fun entry ->
      if entry.Reg.entry_name = "fgp-priority" then None
      else
        Some
          (Alcotest.test_case
             (entry.Reg.entry_name ^ " fault-free progress")
             `Quick
             (test_faultfree_everyone_commits entry)))
    Reg.all

(* The two Fgp variants differ in their abort rule as well as in their
   commit rule: fgp-priority drops an aborted process from CP, while Fgp
   keeps it there until the next commit, which then dooms it. *)
let test_fgp_priority_abort_leaves_cp () =
  let next_read name =
    let entry = Option.get (Reg.find name) in
    let tm = Reg.instance entry (Intf.config ~nprocs:2 ~ntvars:1 ()) in
    let expect what r resp =
      Alcotest.(check bool) (name ^ ": " ^ what) true (r = resp)
    in
    ignore (op tm 1 (Event.Read 0));
    ignore (op tm 2 (Event.Read 0));
    expect "p1 commits" (op tm 1 Event.Try_commit) Event.Committed;
    expect "p2's write aborts" (op tm 2 (Event.Write (0, 1))) Event.Aborted;
    ignore (op tm 1 (Event.Read 0));
    expect "p1 commits again" (op tm 1 Event.Try_commit) Event.Committed;
    op tm 2 (Event.Read 0)
  in
  Alcotest.(check bool) "fgp: p2's next read aborts" true
    (next_read "fgp" = Event.Aborted);
  Alcotest.(check bool) "fgp-priority: p2's next read returns a value" true
    (next_read "fgp-priority" = Event.Value 0)

let test_fgp_priority_faultfree () =
  (* The guarantee is exactly priority progress: the top-priority process
     is never aborted and commits every transaction; under round-robin
     lockstep (everyone reaches tryC in the same round) the lower ranks
     are doomed by p1's commit every single round — priority progress is
     all you get, which is the Theorem-1-consistent price of the
     future-work property. *)
  let entry = Option.get (Reg.find "fgp-priority") in
  let spec =
    Tm_sim.Runner.spec ~nprocs:3 ~ntvars:1 ~steps:4000 ~seed:1
      ~sched:Tm_sim.Runner.Round_robin ()
  in
  let o = run_spec entry spec in
  Alcotest.(check int) "p1 never aborted" 0 o.Tm_sim.Runner.aborts.(1);
  Alcotest.(check bool) "p1 commits unboundedly" true
    (o.Tm_sim.Runner.commits.(1) >= 100);
  Alcotest.(check int) "p2 starves under lockstep" 0
    o.Tm_sim.Runner.commits.(2);
  Alcotest.(check int) "p3 starves under lockstep" 0
    o.Tm_sim.Runner.commits.(3);
  (* Under a random scheduler p1's idle gaps let p2 trickle through —
     progress at a much lower rate, never zero — while p1 still never
     aborts. *)
  let spec_uniform =
    Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps:4000 ~seed:1
      ~sched:Tm_sim.Runner.Uniform ()
  in
  let o2 = run_spec entry spec_uniform in
  Alcotest.(check int) "p1 never aborted (uniform)" 0
    o2.Tm_sim.Runner.aborts.(1);
  Alcotest.(check bool) "p1 commits unboundedly (uniform)" true
    (o2.Tm_sim.Runner.commits.(1) >= 100);
  Alcotest.(check bool) "p2 trickles through (uniform)" true
    (o2.Tm_sim.Runner.commits.(2) > 0
    && o2.Tm_sim.Runner.commits.(2) < o2.Tm_sim.Runner.commits.(1) / 10)

let test_fgp_priority_fault_rank () =
  let entry = Option.get (Reg.find "fgp-priority") in
  (* A fault *above* you in the priority order starves you forever... *)
  let spec_top_faulty =
    Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps:4000 ~seed:1
      ~sched:Tm_sim.Runner.Round_robin
      ~fates:[ (1, Tm_sim.Runner.Crash_after_write 1) ]
      ()
  in
  let o1 = run_spec entry spec_top_faulty in
  Alcotest.(check int) "p2 starves below a crashed p1" 0
    o1.Tm_sim.Runner.commits.(2);
  (* ... but a fault *below* you is harmless. *)
  let spec_bottom_faulty =
    Tm_sim.Runner.spec ~nprocs:2 ~ntvars:1 ~steps:4000 ~seed:1
      ~sched:Tm_sim.Runner.Round_robin
      ~fates:[ (2, Tm_sim.Runner.Crash_after_write 1) ]
      ()
  in
  let o2 = run_spec entry spec_bottom_faulty in
  Alcotest.(check bool) "p1 sails past a crashed p2" true
    (o2.Tm_sim.Runner.commits.(1) >= 10);
  Alcotest.(check int) "p1 never aborted" 0 o2.Tm_sim.Runner.aborts.(1)

(* ------------------------------------------------------------------ *)
(* Transfer workload: committed transactions preserve the total balance. *)

let test_transfer_invariant () =
  let entry = Option.get (Reg.find "tl2") in
  let ntvars = 4 in
  let spec =
    Tm_sim.Runner.spec ~nprocs:3 ~ntvars ~steps:400 ~seed:9
      ~sched:Tm_sim.Runner.Uniform
      ~workload:(Tm_sim.Workload.transfer ~ntvars)
      ()
  in
  let o = run_spec entry spec in
  match Tm_safety.Opacity.serialization o.Tm_sim.Runner.history with
  | None -> Alcotest.fail "transfer history should be opaque"
  | Some order ->
      let final =
        List.fold_left Tm_safety.Legality.commit_effect Tm_safety.Store.initial
          order
      in
      let sum =
        List.fold_left
          (fun acc x -> acc + Tm_safety.Store.get final x)
          0
          (List.init ntvars Fun.id)
      in
      Alcotest.(check int) "total balance preserved" 0 sum

(* ------------------------------------------------------------------ *)
(* The Section-3.2.3 solo-progress matrix (experiment Z1): each cell of
   each TM's contract row against Tm_sim.Solo's measurement. *)

let matrix_cases =
  List.concat_map
    (fun (c : Tm_impl.Contract.t) ->
      (* one measurement per TM, shared by its four cells *)
      let measured =
        lazy
          (Tm_impl.Contract.cells
             (Tm_sim.Solo.measure (Option.get (Reg.find c.tm_name))))
      in
      List.map
        (fun (cell, expected) ->
          Alcotest.test_case
            (Fmt.str "%s / %s" c.tm_name cell)
            `Quick
            (fun () ->
              Alcotest.(check bool)
                (Fmt.str "%s: runner progress under %s" c.tm_name cell)
                expected
                (List.assoc cell (Lazy.force measured))))
        (Tm_impl.Contract.cells c.expected))
    Tm_impl.Contract.all

let test_mvstm_readers_never_abort () =
  (* The multiversion TM's distinctive property: a read-only process is
     never aborted, even under heavy write fire from the other processes —
     whereas under TL2 the same reader aborts constantly.  (This is also
     why multiversioning cannot beat Theorem 1: the victim's *writes*
     still lose.) *)
  let mixed_spec =
    Tm_sim.Runner.spec ~nprocs:3 ~ntvars:2 ~steps:3000 ~seed:4
      ~sched:Tm_sim.Runner.Uniform
      ~workload:(Tm_sim.Workload.counter ~ntvars:2)
      ~workload_overrides:
        [ (1, Tm_sim.Workload.read_only ~ntvars:2 ~reads:3) ]
      ()
  in
  let mv = Option.get (Reg.find "mvstm") in
  let o = Tm_sim.Runner.run mv mixed_spec in
  Alcotest.(check int) "mvstm: the reader is never aborted" 0
    o.Tm_sim.Runner.aborts.(1);
  Alcotest.(check bool) "mvstm: the reader commits constantly" true
    (o.Tm_sim.Runner.commits.(1) > 100);
  Alcotest.(check bool) "mvstm: writers also make progress" true
    (o.Tm_sim.Runner.commits.(2) + o.Tm_sim.Runner.commits.(3) > 20);
  (* Under TL2 the same reader aborts under the same write fire. *)
  let tl2 = Option.get (Reg.find "tl2") in
  let o2 = Tm_sim.Runner.run tl2 mixed_spec in
  Alcotest.(check bool) "tl2: the same reader aborts repeatedly" true
    (o2.Tm_sim.Runner.aborts.(1) > 20);
  (* The mixed mvstm run stays opaque (multiversion reads must be
     consistent). *)
  Alcotest.(check bool) "mvstm mixed run opaque (prefix)" true
    (Tm_safety.Opacity.is_opaque
       (History.of_events
          (List.filteri (fun i _ -> i < 400)
             (History.events o.Tm_sim.Runner.history))))

let test_ostm_helped_commit_opaque () =
  (* The crashed OSTM commit is finished by the helper; the resulting
     history has a commit-pending transaction whose effects are visible.
     The completion-aware opacity checker must accept it. *)
  let entry = Option.get (Reg.find "ostm") in
  let o = Tm_sim.Solo.run entry (Tm_sim.Runner.Crash_mid_commit 2) in
  Alcotest.(check bool)
    "helped-commit history is opaque" true
    (Tm_safety.Opacity.is_opaque o.Tm_sim.Runner.history)

let test_global_lock_blocks () =
  let entry = Option.get (Reg.find "global-lock") in
  let o = Tm_sim.Solo.run entry (Tm_sim.Runner.Crash_after_write 1) in
  Alcotest.(check bool)
    "runner is blocked, not aborted" true
    (List.mem 2 (Tm_sim.Runner.blocked_procs o));
  Alcotest.(check int) "runner never aborted" 0 o.Tm_sim.Runner.aborts.(2)

let test_global_lock_faultfree_local_progress () =
  (* Fault-free, the global lock aborts nobody and everybody commits:
     the paper's observation that local progress is possible in
     crash-free parasitic-free systems. *)
  let entry = Option.get (Reg.find "global-lock") in
  let spec =
    Tm_sim.Runner.spec ~nprocs:4 ~ntvars:1 ~steps:4000 ~seed:2
      ~sched:Tm_sim.Runner.Round_robin ()
  in
  let o = run_spec entry spec in
  Alcotest.(check int) "no aborts at all" 0 (Tm_sim.Runner.abort_total o);
  for p = 1 to 4 do
    Alcotest.(check bool)
      (Fmt.str "p%d commits" p)
      true
      (o.Tm_sim.Runner.commits.(p) >= 10)
  done

(* ------------------------------------------------------------------ *)
(* The contract table (Tm_impl.Contract) names every TM of the registry
   once; the matrix cases above hold each row to its measurement. *)

let test_contracts_cover_registry () =
  Alcotest.(check (list string))
    "contracts cover exactly the registry"
    (List.sort String.compare Reg.names)
    (List.sort String.compare
       (List.map (fun c -> c.Tm_impl.Contract.tm_name) Tm_impl.Contract.all));
  (* Render for coverage. *)
  List.iter (fun c -> ignore (Fmt.str "%a" Tm_impl.Contract.pp c))
    Tm_impl.Contract.all

(* ------------------------------------------------------------------ *)
(* Units: the registry, the mailbox, and contention-manager policies. *)

let test_registry () =
  let names = Reg.names in
  Alcotest.(check int) "distinct names" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun n ->
      match Reg.find n with
      | Some e -> Alcotest.(check string) "find by name" n e.Reg.entry_name
      | None -> Alcotest.failf "lookup of %s failed" n)
    names;
  Alcotest.(check (option string)) "unknown name" None
    (Option.map (fun e -> e.Reg.entry_name) (Reg.find "no-such-tm"));
  Alcotest.(check bool) "responsive subset" true
    (List.length Reg.responsive < List.length Reg.all)

let test_mailbox () =
  let cfg = Intf.config ~nprocs:2 ~ntvars:1 () in
  let m = Intf.Mailbox.create cfg in
  Alcotest.(check bool) "empty" true (Intf.Mailbox.get m 1 = None);
  Intf.Mailbox.put m 1 (Event.Read 0);
  Alcotest.(check bool) "stored" true (Intf.Mailbox.get m 1 = Some (Event.Read 0));
  Alcotest.check_raises "double invocation"
    (Invalid_argument "process p1 already has a pending invocation")
    (fun () -> Intf.Mailbox.put m 1 Event.Try_commit);
  Intf.Mailbox.clear m 1;
  Alcotest.(check bool) "cleared" true (Intf.Mailbox.get m 1 = None);
  Alcotest.check_raises "process out of range"
    (Invalid_argument "process p3 out of range") (fun () ->
      Intf.Mailbox.check_range cfg 3 (Event.Read 0));
  Alcotest.check_raises "t-variable out of range"
    (Invalid_argument "t-variable x5 out of range") (fun () ->
      Intf.Mailbox.check_range cfg 1 (Event.Read 5))

let test_contention_managers () =
  let view p ~ops ~waits ~ts =
    { Tm_impl.Cm.proc = p; ops_done = ops; waits; timestamp = ts }
  in
  let old = view 1 ~ops:5 ~waits:0 ~ts:1 in
  let young = view 2 ~ops:1 ~waits:0 ~ts:9 in
  Alcotest.(check bool) "aggressive steals" true
    (Tm_impl.Cm.aggressive.Tm_impl.Cm.decide ~attacker:young ~victim:old
    = Tm_impl.Cm.Steal);
  let polite = Tm_impl.Cm.polite 3 in
  Alcotest.(check bool) "polite waits early" true
    (polite.Tm_impl.Cm.decide ~attacker:young ~victim:old = Tm_impl.Cm.Wait);
  Alcotest.(check bool) "polite steals after the bound" true
    (polite.Tm_impl.Cm.decide
       ~attacker:(view 2 ~ops:1 ~waits:3 ~ts:9)
       ~victim:old
    = Tm_impl.Cm.Steal);
  Alcotest.(check bool) "karma respects work" true
    (Tm_impl.Cm.karma.Tm_impl.Cm.decide ~attacker:young ~victim:old
    = Tm_impl.Cm.Wait);
  Alcotest.(check bool) "karma steals once ahead" true
    (Tm_impl.Cm.karma.Tm_impl.Cm.decide
       ~attacker:(view 2 ~ops:3 ~waits:2 ~ts:9)
       ~victim:old
    = Tm_impl.Cm.Steal);
  Alcotest.(check bool) "greedy: older steals" true
    (Tm_impl.Cm.greedy.Tm_impl.Cm.decide ~attacker:old ~victim:young
    = Tm_impl.Cm.Steal);
  Alcotest.(check bool) "greedy: younger aborts itself" true
    (Tm_impl.Cm.greedy.Tm_impl.Cm.decide ~attacker:young ~victim:old
    = Tm_impl.Cm.Abort_self);
  Alcotest.(check (option string)) "lookup by name" (Some "karma")
    (Option.map
       (fun c -> c.Tm_impl.Cm.cm_name)
       (Tm_impl.Cm.by_name "karma"))

(* ------------------------------------------------------------------ *)
(* Property: opacity of random faulty runs across the zoo. *)

let prop_zoo_opacity =
  let gen =
    QCheck2.Gen.(
      let* seed = int_bound 10_000 in
      let* entry_idx = int_bound (List.length Reg.all - 1) in
      let* nprocs = int_range 2 3 in
      let* fate_choice = int_bound 3 in
      let fates =
        match fate_choice with
        | 0 -> []
        | 1 -> [ (1, Tm_sim.Runner.Crash_at 40) ]
        | 2 -> [ (1, Tm_sim.Runner.Parasitic_from 40) ]
        | _ ->
            [
              (1, Tm_sim.Runner.Crash_after_write 2);
              (2, Tm_sim.Runner.Crash_mid_commit 1);
            ]
      in
      return (seed, entry_idx, nprocs, fates))
  in
  QCheck2.Test.make ~count:60
    ~name:"every TM produces opaque histories under random faulty schedules"
    gen
    (fun (seed, entry_idx, nprocs, fates) ->
      let entry = List.nth Reg.all entry_idx in
      let spec =
        Tm_sim.Runner.spec ~nprocs ~ntvars:2 ~steps:200 ~seed
          ~sched:Tm_sim.Runner.Uniform ~fates ()
      in
      let o = run_spec entry spec in
      History.is_well_formed o.Tm_sim.Runner.history
      && Tm_safety.Opacity.is_opaque o.Tm_sim.Runner.history)

let properties = [ QCheck_alcotest.to_alcotest prop_zoo_opacity ]

let () =
  Alcotest.run "tm_impl"
    [
      ("semantics", zoo_semantics_tests);
      ( "fgp figures",
        [
          Alcotest.test_case "figure 16 replay" `Quick test_fig16_replay;
          Alcotest.test_case "figure 15 enumeration" `Quick
            test_fig15_enumeration;
          Alcotest.test_case "figure 15 has no abort transition" `Quick
            test_fig15_no_abort;
          Alcotest.test_case "solo process never aborted" `Quick
            test_fgp_never_aborts_solo;
          Alcotest.test_case "literal formal rules contradict figure 16"
            `Quick test_literal_fgp_breaks_fig16;
          Alcotest.test_case "literal formal rules violate opacity" `Quick
            test_literal_fgp_not_opaque;
        ] );
      ( "fgp variants",
        [
          Alcotest.test_case "only fgp-priority's abort leaves CP" `Quick
            test_fgp_priority_abort_leaves_cp;
        ] );
      ("opacity of runs", zoo_opacity_tests);
      ( "runner",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "strict serializability of runs" `Quick
            test_zoo_strict_serializability;
          Alcotest.test_case "transfer invariant" `Quick
            test_transfer_invariant;
        ] );
      ( "fault-free progress",
        zoo_progress_tests
        @ [
            Alcotest.test_case "fgp-priority fault-free (round-robin)" `Quick
              test_fgp_priority_faultfree;
            Alcotest.test_case "fgp-priority fault rank" `Quick
              test_fgp_priority_fault_rank;
          ] );
      ( "solo-progress matrix",
        matrix_cases
        @ [
            Alcotest.test_case "mvstm readers never abort" `Quick
              test_mvstm_readers_never_abort;
            Alcotest.test_case "ostm helped commit opaque" `Quick
              test_ostm_helped_commit_opaque;
            Alcotest.test_case "global lock blocks" `Quick
              test_global_lock_blocks;
            Alcotest.test_case "global lock fault-free local progress" `Quick
              test_global_lock_faultfree_local_progress;
          ] );
      ( "contracts",
        [
          Alcotest.test_case "contracts cover the registry" `Quick
            test_contracts_cover_registry;
        ] );
      ( "units",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "mailbox" `Quick test_mailbox;
          Alcotest.test_case "contention managers" `Quick
            test_contention_managers;
        ] );
      ("properties", properties);
    ]
