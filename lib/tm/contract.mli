(** The progress contracts of the zoo, as data.

    This is the Section-3.2.3 classification — extended to the whole zoo —
    in queryable form: for each TM, the system assumptions under which it
    guarantees a solo runner's progress, whether it is responsive, and
    whether it guarantees global progress in every fault-prone system.
    The test suite checks each contract against the {e measured}
    solo-progress matrix, so this table cannot silently drift from the
    implementations. *)

type assumption =
  | Crash_free  (** no process crashes (mid-transaction or mid-commit) *)
  | Parasitic_free  (** no process runs forever without invoking [tryC] *)

type t = {
  tm_name : string;
  solo_requires : assumption list;
      (** solo progress is guaranteed iff the system satisfies all of
          these (the empty list = any fault-prone system) *)
  global_progress_fault_prone : bool;
      (** at least one correct process always progresses, whatever the
          faults *)
  notes : string;
}

val all : t list

val pp : Format.formatter -> t -> unit
