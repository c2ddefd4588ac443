(** The progress contracts of the zoo, as data.

    This is the Section-3.2.3 classification — extended to the whole zoo —
    in queryable form: for each TM, the expected row of the solo-progress
    matrix, whether it guarantees global progress in every fault-prone
    system, and whether Theorem 1's adversary starves its winner too.
    The system assumptions under which a TM guarantees a solo runner's
    progress are derived from that row.
    [Tm_sim.Solo.measure] measures the same row, and the test suite and
    bench Z1 compare the two cell by cell, so this table cannot silently
    drift from the implementations. *)

type row = {
  healthy : bool;  (** the runner progresses beside a healthy process *)
  crash_after_write : bool;  (** ... beside one crashed after a write *)
  mid_commit : bool;  (** ... beside one crashed inside its commit *)
  parasite : bool;  (** ... beside a parasitic one *)
}
(** One row of the solo-progress matrix: whether the solo runner makes
    progress beside a process suffering each fault. *)

val cells : row -> (string * bool) list
(** The row's cells in column order, named ["healthy"],
    ["crash-after-write"], ["crash-mid-commit"] and ["parasite"]. *)

type t = {
  tm_name : string;
  expected : row;
  mid_commit_depth : int;
      (** the commit poll a mid-commit crash lands on: 2, past the lock
          phase, for the multi-poll commits of tl2, ostm, norec and
          mvstm; 0, right after the [tryC] invocation, for every other
          TM *)
  global_progress_fault_prone : bool;
      (** at least one correct process always progresses, whatever the
          faults *)
  winner_starves : bool;
      (** Theorem 1's adversary starves its winner p2 as well as p1
          (the Figure 9/12 outcome): true for the quiescent strawman and
          for fgp-priority, whose suspended victim is its top priority *)
  notes : string;
}

val all : t list

val find : string -> t option
(** The contract of the TM of that registry name. *)

val pp : Format.formatter -> t -> unit
(** The TM's solo assumptions: crash-free unless both crash cells of
    its row hold, parasitic-free unless its parasite cell holds ("any
    fault-prone system" when it needs neither). *)
