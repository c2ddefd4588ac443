(** Lint findings: the common currency of every analyzer in [Tm_analysis].

    A finding names the rule that fired, how bad it is, where in the
    analyzed artifact it fired, and a human explanation.  Findings are
    plain data with a deterministic JSON encoding, so analyzer output can
    be diffed, archived as a CI artifact, and gated on. *)

type severity = Info | Warning | Error

type location =
  | At_event of int  (** history event index (0-based) *)
  | At_ts of int * int  (** trace location: (logical timestamp, tid lane) *)
  | At_proc of int  (** a process of the history/lasso *)
  | At_line of int  (** a source line (1-based), for static findings *)
  | Whole  (** the artifact as a whole *)

type t = {
  rule : string;  (** rule identifier, e.g. ["wf-alternation"] *)
  severity : severity;
  subject : string;  (** label of the analyzed artifact, e.g. ["fig3"] *)
  location : location;
  message : string;  (** one-line explanation *)
}

val v :
  rule:string -> severity:severity -> subject:string -> ?location:location ->
  string -> t
(** [v ~rule ~severity ~subject msg] builds a finding ([location] defaults
    to {!Whole}). *)

val severity_label : severity -> string
(** ["info"], ["warning"], ["error"]. *)

val is_error : t -> bool

val compare : t -> t -> int
(** Sort key: severity (errors first), then subject, then rule, then
    location, then message — a deterministic report order. *)

val list_to_json : t list -> string
(** The findings document:
    [{"findings":[...],"counts":{"error":e,"warning":w,"info":i}}] —
    deterministic bytes for equal finding lists. *)

val pp : Format.formatter -> t -> unit
(** One line: [severity subject location rule: message]. *)

val pp_report : Format.formatter -> t list -> unit
(** A sorted table of findings followed by a severity tally; prints
    ["no findings"] on an empty list. *)
