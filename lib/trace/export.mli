(** Trace serialization.

    The JSON form is the Chrome [trace_event] array format, loadable in
    Perfetto (ui.perfetto.dev) and [chrome://tracing].  Serialization is
    deterministic: fixed key order, no whitespace variation — equal event
    lists produce byte-identical strings. *)

val add_json_string : Buffer.t -> string -> unit
(** Appends [s] as a JSON string: quoted, with the double quote, the
    backslash, newline, tab and carriage return escaped by name, every
    other control character as a [\u00XX] escape, and every other byte
    (UTF-8 included) as it is.  The one JSON string escaper: every JSON
    writer of the repository uses it. *)

val json_string : string -> string
(** [s] as a JSON string, as {!add_json_string} writes it. *)

val chrome_string : Trace_event.t list -> string
(** JSON array of trace_event objects. *)

val to_chrome_channel : out_channel -> Trace_event.t list -> unit

val of_chrome_string : string -> (Trace_event.t list, string) result
(** Parses JSON produced by {!chrome_string} back into events.
    [of_chrome_string (chrome_string evs) = Ok evs] for any [evs]. *)

val text_string : Trace_event.t list -> string
(** Compact human-readable dump, one event per line. *)
