open Tm_history
module PC = Tm_liveness.Process_class

let err ~subject ~rule ?location msg =
  Finding.v ~rule ~severity:Finding.Error ~subject ?location msg

(* Well-formedness scan.  Unlike [History.well_formed], which stops at the
   first offence, this reports every offending event, repairing the
   per-process state best-effort so later offences are still seen. *)
let wf_findings ~subject events =
  let pending : (Event.proc, Event.invocation) Hashtbl.t = Hashtbl.create 8 in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  List.iteri
    (fun i e ->
      match e with
      | Event.Inv (p, inv) ->
          (match Hashtbl.find_opt pending p with
          | Some prev ->
              add
                (err ~subject ~rule:"wf-alternation"
                   ~location:(Finding.At_event i)
                   (Fmt.str
                      "process %d issued %a while %a was still pending" p
                      Event.pp_invocation inv Event.pp_invocation prev))
          | None -> ());
          Hashtbl.replace pending p inv
      | Event.Res (p, r) -> (
          match Hashtbl.find_opt pending p with
          | None ->
              add
                (err ~subject ~rule:"wf-orphan-response"
                   ~location:(Finding.At_event i)
                   (Fmt.str "process %d received %a with no pending invocation"
                      p Event.pp_response r))
          | Some inv ->
              Hashtbl.remove pending p;
              if not (Event.matches inv r) then
                add
                  (err ~subject ~rule:"wf-response-match"
                     ~location:(Finding.At_event i)
                     (Fmt.str "response %a does not match invocation %a"
                        Event.pp_response r Event.pp_invocation inv))))
    events;
  List.rev !findings

let check_transactions ~subject txns =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  (* Unique identifiers: no two transactions may share (proc, seq). *)
  let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (t : Transaction.t) ->
      let id = (t.Transaction.proc, t.Transaction.seq) in
      if Hashtbl.mem seen id then
        add
          (err ~subject ~rule:"txn-unique-id"
             ~location:(Finding.At_proc t.Transaction.proc)
             (Fmt.str "duplicate transaction identifier %s"
                (Transaction.label t)))
      else Hashtbl.add seen id ())
    txns;
  (* Interval consistency: per process, transactions are disjoint and in
     program order; every interval runs forward. *)
  let by_proc : (int, Transaction.t list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (t : Transaction.t) ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_proc t.Transaction.proc)
      in
      Hashtbl.replace by_proc t.Transaction.proc (t :: prev))
    txns;
  Hashtbl.iter
    (fun p ts ->
      let ts =
        List.sort
          (fun (a : Transaction.t) b ->
            Int.compare a.Transaction.seq b.Transaction.seq)
          ts
      in
      List.iter
        (fun (t : Transaction.t) ->
          if t.Transaction.first_pos > t.Transaction.last_pos then
            add
              (err ~subject ~rule:"txn-interval"
                 ~location:(Finding.At_event t.Transaction.first_pos)
                 (Fmt.str "transaction %s interval runs backwards (%d > %d)"
                    (Transaction.label t) t.Transaction.first_pos
                    t.Transaction.last_pos)))
        ts;
      ignore
        (List.fold_left
           (fun prev (t : Transaction.t) ->
             (match prev with
             | Some (pt : Transaction.t)
               when t.Transaction.first_pos <= pt.Transaction.last_pos ->
                 add
                   (err ~subject ~rule:"txn-interval"
                      ~location:(Finding.At_event t.Transaction.first_pos)
                      (Fmt.str
                         "transactions %s and %s of process %d overlap \
                          ([%d,%d] vs [%d,%d])"
                         (Transaction.label pt) (Transaction.label t) p
                         pt.Transaction.first_pos pt.Transaction.last_pos
                         t.Transaction.first_pos t.Transaction.last_pos))
             | _ -> ());
             Some t)
           None ts))
    by_proc;
  List.sort Finding.compare !findings

let lint_history ~subject h =
  let wf = wf_findings ~subject (History.events h) in
  if wf <> [] then wf
  else check_transactions ~subject (Transaction.of_history h)

(* --- lasso diagnostics --- *)

let class_invariant ~subject l =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  List.iter
    (fun (s : PC.summary) ->
      let p = s.PC.proc in
      let bad msg =
        add
          (err ~subject ~rule:"live-class-invariant"
             ~location:(Finding.At_proc p) msg)
      in
      if s.PC.crashed && s.PC.correct then
        bad (Fmt.str "process %d is both crashed and correct" p);
      if s.PC.parasitic && s.PC.correct then
        bad (Fmt.str "process %d is both parasitic and correct" p);
      if s.PC.crashed && s.PC.parasitic then
        bad (Fmt.str "process %d is both crashed and parasitic" p);
      if s.PC.starving && not (s.PC.correct && s.PC.pending) then
        bad (Fmt.str "process %d starves but is not correct-and-pending" p);
      if s.PC.progresses && not (s.PC.correct && not s.PC.pending) then
        bad (Fmt.str "process %d progresses but is not correct-and-committing" p);
      if s.PC.correct = (s.PC.crashed || s.PC.parasitic) then
        bad (Fmt.str "process %d: correct flag contradicts fault flags" p);
      (* The flattened class must match the flags it was derived from. *)
      let c = PC.cls l p in
      let flag_of_cls =
        match c with
        | PC.Crashed -> s.PC.crashed
        | PC.Parasitic -> s.PC.parasitic
        | PC.Starving -> s.PC.starving
        | PC.Progressing -> s.PC.progresses
      in
      if not flag_of_cls then
        bad
          (Fmt.str "process %d classified %s but the flag is unset" p
             (PC.cls_label c)))
    (PC.classify l);
  List.rev !findings

let lint_lasso ~subject l =
  let wf =
    List.map
      (fun (f : Finding.t) -> { f with Finding.rule = "lasso-wf" })
      (wf_findings ~subject (History.events (Lasso.unroll l 2)))
  in
  wf @ class_invariant ~subject l
