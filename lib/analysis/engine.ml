type family = History_rule | Lasso_rule | Trace_rule

type rule = {
  id : string;
  family : family;
  severity : Finding.severity;
  doc : string;
}

let rules =
  [
    (* History lints. *)
    {
      id = "wf-alternation";
      family = History_rule;
      severity = Finding.Error;
      doc = "a process invoked while its previous invocation was pending";
    };
    {
      id = "wf-orphan-response";
      family = History_rule;
      severity = Finding.Error;
      doc = "a response event with no pending invocation";
    };
    {
      id = "wf-response-match";
      family = History_rule;
      severity = Finding.Error;
      doc = "a response whose kind does not match the pending invocation";
    };
    {
      id = "txn-unique-id";
      family = History_rule;
      severity = Finding.Error;
      doc = "two transactions share a (process, sequence) identifier";
    };
    {
      id = "txn-interval";
      family = History_rule;
      severity = Finding.Error;
      doc = "transaction intervals of one process overlap or run backwards";
    };
    (* Lasso / liveness-taxonomy lints. *)
    {
      id = "lasso-wf";
      family = Lasso_rule;
      severity = Finding.Error;
      doc = "a finite unrolling of the lasso is not well-formed";
    };
    {
      id = "live-class-invariant";
      family = Lasso_rule;
      severity = Finding.Error;
      doc = "the recomputed Figure-2 taxonomy is internally inconsistent";
    };
    (* Trace lints. *)
    {
      id = "lock-overlap";
      family = Trace_rule;
      severity = Finding.Error;
      doc = "a versioned lock was acquired while another domain held it";
    };
    {
      id = "unlock-without-lock";
      family = Trace_rule;
      severity = Finding.Error;
      doc = "a lock release by a domain that does not hold the lock";
    };
    {
      id = "publish-without-lock";
      family = Trace_rule;
      severity = Finding.Error;
      doc = "a commit published a t-variable without holding its lock";
    };
    {
      id = "acquire-after-publish";
      family = Trace_rule;
      severity = Finding.Error;
      doc = "a commit acquired a lock after starting to publish";
    };
    {
      id = "lock-leak";
      family = Trace_rule;
      severity = Finding.Error;
      doc = "a commit attempt (or the whole trace) ended with locks held";
    };
    {
      id = "lock-order-cycle";
      family = Trace_rule;
      severity = Finding.Error;
      doc = "the lock-order graph has a cycle (potential deadlock)";
    };
    {
      id = "hb-race";
      family = Trace_rule;
      severity = Finding.Error;
      doc =
        "two publishes to one t-variable are concurrent under happens-before";
    };
    {
      id = "chaos-class";
      family = Trace_rule;
      severity = Finding.Error;
      doc =
        "an injected chaos fault disagrees with the empirical verdict events";
    };
    {
      id = "blame";
      family = Trace_rule;
      severity = Finding.Error;
      doc =
        "blame-attribution evidence disagrees with the chaos verdicts or \
         leaves a starvation unattributed";
    };
  ]

let rule_ids = List.map (fun r -> r.id) rules

let parse_selection valid s =
  match String.trim s with
  | "all" | "" -> Ok valid
  | s ->
      let ids =
        List.filter_map
          (fun x ->
            let x = String.trim x in
            if x = "" then None else Some x)
          (String.split_on_char ',' s)
      in
      let unknown = List.filter (fun id -> not (List.mem id valid)) ids in
      if unknown = [] then Ok ids
      else
        Error
          (Fmt.str "unknown rule(s) %s (valid: all, %s)"
             (String.concat ", " unknown)
             (String.concat ", " valid))

let family_label = function
  | History_rule -> "history"
  | Lasso_rule -> "lasso"
  | Trace_rule -> "trace"

let pp_catalogue ppf () =
  List.iter
    (fun r ->
      Fmt.pf ppf "%-22s %-8s %-8s %s@." r.id (family_label r.family)
        (Finding.severity_label r.severity)
        r.doc)
    rules

let filter_rules rules findings =
  match rules with
  | None -> findings
  | Some ids ->
      List.filter (fun (f : Finding.t) -> List.mem f.Finding.rule ids) findings

let run_history ?rules ~subject h =
  filter_rules rules (History_lint.lint_history ~subject h)

let run_lasso ?rules ~subject l =
  filter_rules rules (History_lint.lint_lasso ~subject l)

let run_trace ?rules ~subject events =
  filter_rules rules (Trace_lint.lint_trace ~subject events)

type fail_level = [ `Error | `Warning | `Never ]

let exit_code_at level findings =
  match level with
  | `Never -> 0
  | `Error -> if List.exists Finding.is_error findings then 1 else 0
  | `Warning ->
      if
        List.exists
          (fun (f : Finding.t) -> f.Finding.severity <> Finding.Info)
          findings
      then 1
      else 0
