open Tm_history

(** History lints: static well-formedness and liveness-taxonomy checks
    over the paper's artifacts.

    {b Rules on finite histories} ({!lint_history}):
    - [wf-alternation]: a process issued an invocation while its previous
      invocation was still pending (Section 2.2 alternation broken);
    - [wf-orphan-response]: a response event with no pending invocation;
    - [wf-response-match]: a response whose kind does not match the
      pending invocation (a read answered by [ok], a write answered by a
      value, ...);
    - [txn-unique-id]: two extracted transactions share an identifier
      (process, per-process sequence number);
    - [txn-interval]: transaction intervals of one process overlap, run
      backwards, or escape the history bounds.

    The [txn-*] rules run only when the [wf-*] rules found nothing:
    transaction extraction assumes well-formedness.

    {b Rules on lassos} ({!lint_lasso}):
    - [lasso-wf]: a finite unrolling of the lasso fails the [wf-*] rules
      (defense in depth — {!Lasso.v} already enforces this);
    - [live-class-invariant]: the recomputed Figure-2 taxonomy is
      internally inconsistent (e.g. a process both crashed and correct) —
      a sanitizer over {!Tm_liveness.Process_class} itself. *)

val lint_history : subject:string -> History.t -> Finding.t list
(** All [wf-*] and [txn-*] findings of a finite history, in event order. *)

val check_transactions :
  subject:string -> Transaction.t list -> Finding.t list
(** The [txn-*] rules on an explicit transaction list (exposed so seeded
    violations can be tested without forging an ill-formed history). *)

val lint_lasso : subject:string -> Lasso.t -> Finding.t list
(** Taxonomy diagnostics of a lasso. *)
