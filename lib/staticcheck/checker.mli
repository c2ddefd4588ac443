(** The static-check driver: rule catalogue, repo-root discovery and
    the one-call [run] shared by [tmlive static], the tests and bench
    §P11.  Output is deterministic: sorted findings with root-relative
    subjects, so two runs over one tree are byte-identical. *)

type rule = { id : string; severity : Tm_analysis.Finding.severity; doc : string }

val rule_ids : string list

val parse_selection : string -> (string list, string) result
(** Parse a [--rules] argument: ["all"] or a comma-separated id list;
    unknown ids are an error naming the valid ones. *)

val pp_catalogue : Format.formatter -> unit -> unit

val find_root : unit -> string option
(** Walk upward from the working directory to the first directory
    holding [dune-project] and [lib/stm]. *)

type report = { findings : Tm_analysis.Finding.t list; files_scanned : int }

val run :
  ?rules:string list -> root:string -> unit -> (report, string) result
(** Run the selected rules (default: all) over the checkout at [root].
    [Error] only if [root] is not a repo checkout at all; per-file
    parse failures are [static-parse] findings instead. *)
