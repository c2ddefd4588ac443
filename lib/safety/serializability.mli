open Tm_history

(** The strict-serializability checker (Section 2.4).

    A finite history [H] is strictly serializable iff there is a sequential
    history equivalent to [Hcom] — the longest subsequence of [H] containing
    only committed transactions — that preserves the real-time order of [H]
    and in which every transaction is legal.  Opacity is strictly stronger:
    every opaque history is strictly serializable (Figure 4 witnesses that
    the converse fails). *)

val committed_projection : History.t -> History.t
(** [Hcom]: the subsequence of events belonging to committed
    transactions. *)

val is_strictly_serializable : History.t -> bool
