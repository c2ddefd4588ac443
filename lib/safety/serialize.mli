open Tm_history

(** Search for a legal serialization of a set of completed transactions.

    Given transactions extracted from a history (all committed or aborted),
    {!search} looks for a total order that extends the real-time order [<H]
    (which subsumes per-process program order, since same-process
    transactions are never concurrent) and in which every transaction is
    legal when replayed against the committed store built from the
    transactions placed before it.

    Such an order exists iff there is a sequential history [Hs] equivalent
    to the input that preserves its real-time order with every transaction
    legal — exactly the witness required by opacity (when the input is
    [com(H)]'s transactions) and by strict serializability (when the input
    is the committed transactions of [H]).

    The search is backtracking with two prunings: transactions are only
    candidates once all their real-time predecessors are placed, and visited
    (placed-set, store) states are memoized (from an identical residual
    problem the outcome is identical).  Worst-case exponential — deciding
    opacity is NP-hard in general — but near-linear on histories produced by
    actual single-version TMs, whose commit order is itself a witness; the
    candidate ordering tries the history's own commit order first. *)

val search : Transaction.t list -> Transaction.t list option
(** [search ts] is a witness order, or [None] if none exists. *)
