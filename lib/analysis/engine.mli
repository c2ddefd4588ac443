open Tm_history

(** The lint engine: the rule catalogue, rule-subset selection, and
    one-call drivers over histories, lassos and traces.

    Every analyzer family registers its rules here so the CLI can list
    them, validate [--rules] selections, and filter findings uniformly.
    Selection is by rule id; ["all"] selects everything. *)

type family = History_rule | Lasso_rule | Trace_rule

type rule = {
  id : string;
  family : family;
  severity : Finding.severity;  (** severity the rule reports at *)
  doc : string;  (** one-line description for [--rules help] and docs *)
}

val rule_ids : string list

val parse_selection : string -> (string list, string) result
(** [parse_selection s] parses a [--rules] argument: ["all"] (every rule)
    or a comma-separated list of rule ids.  Unknown ids are an error
    naming the offender and the valid ids. *)

val pp_catalogue : Format.formatter -> unit -> unit
(** The rule table: id, family, severity, description. *)

(** {2 Drivers}

    Each driver runs every analyzer of the artifact's family and keeps
    the findings whose rule id is in [rules] (default: all).  [subject]
    labels the artifact in findings and reports. *)

val run_history :
  ?rules:string list -> subject:string -> History.t -> Finding.t list

val run_lasso :
  ?rules:string list ->
  subject:string ->
  Lasso.t ->
  Finding.t list

val run_trace :
  ?rules:string list ->
  subject:string ->
  Tm_trace.Trace_event.t list ->
  Finding.t list

type fail_level = [ `Error | `Warning | `Never ]
(** The [--fail-on] threshold: which severities make a report a gating
    failure. [`Error] is the historical exit-1-on-errors behaviour;
    [`Warning] also fails on warnings; [`Never] always exits 0. *)

val exit_code_at : fail_level -> Finding.t list -> int
(** CI gating at a chosen threshold: [1] if any finding at or above
    [level] is present, [0] otherwise ([`Never] is always [0]). *)

val exit_code : Finding.t list -> int
(** [exit_code fs = exit_code_at `Error fs]. *)
