type severity = Info | Warning | Error

type location =
  | At_event of int
  | At_ts of int * int
  | At_proc of int
  | At_line of int
  | Whole

type t = {
  rule : string;
  severity : severity;
  subject : string;
  location : location;
  message : string;
}

let v ~rule ~severity ~subject ?(location = Whole) message =
  { rule; severity; subject; location; message }

let severity_label = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let is_error f = f.severity = Error

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let location_rank = function
  | Whole -> (0, 0, 0)
  | At_proc p -> (1, p, 0)
  | At_event i -> (2, i, 0)
  | At_ts (ts, tid) -> (3, ts, tid)
  | At_line l -> (4, l, 0)

let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.subject b.subject in
    if c <> 0 then c
    else
      let c = String.compare a.rule b.rule in
      if c <> 0 then c
      else
        let c =
          Stdlib.compare (location_rank a.location) (location_rank b.location)
        in
        if c <> 0 then c else String.compare a.message b.message

(* Deterministic JSON: fixed key order, the same escaping rules as
   [Tm_trace.Export]. *)
let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let location_to_json b = function
  | Whole -> Buffer.add_string b "{\"kind\":\"whole\"}"
  | At_proc p ->
      Buffer.add_string b (Printf.sprintf "{\"kind\":\"proc\",\"proc\":%d}" p)
  | At_event i ->
      Buffer.add_string b (Printf.sprintf "{\"kind\":\"event\",\"index\":%d}" i)
  | At_ts (ts, tid) ->
      Buffer.add_string b
        (Printf.sprintf "{\"kind\":\"trace\",\"ts\":%d,\"tid\":%d}" ts tid)
  | At_line l ->
      Buffer.add_string b (Printf.sprintf "{\"kind\":\"line\",\"line\":%d}" l)

let to_json b f =
  Buffer.add_string b "{\"rule\":";
  escape_string b f.rule;
  Buffer.add_string b ",\"severity\":\"";
  Buffer.add_string b (severity_label f.severity);
  Buffer.add_string b "\",\"subject\":";
  escape_string b f.subject;
  Buffer.add_string b ",\"location\":";
  location_to_json b f.location;
  Buffer.add_string b ",\"message\":";
  escape_string b f.message;
  Buffer.add_char b '}'

let count sev fs = List.length (List.filter (fun f -> f.severity = sev) fs)

let list_to_json fs =
  let fs = List.sort compare fs in
  let b = Buffer.create (256 * (1 + List.length fs)) in
  Buffer.add_string b "{\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n";
      to_json b f)
    fs;
  if fs <> [] then Buffer.add_char b '\n';
  Buffer.add_string b
    (Printf.sprintf "],\"counts\":{\"error\":%d,\"warning\":%d,\"info\":%d}}\n"
       (count Error fs) (count Warning fs) (count Info fs));
  Buffer.contents b

let pp_location ppf = function
  | Whole -> Fmt.string ppf "-"
  | At_proc p -> Fmt.pf ppf "p%d" p
  | At_event i -> Fmt.pf ppf "event %d" i
  | At_ts (ts, tid) -> Fmt.pf ppf "ts %d (tid %d)" ts tid
  | At_line l -> Fmt.pf ppf "line %d" l

let pp ppf f =
  Fmt.pf ppf "%-7s %-24s %-14s %s: %s"
    (severity_label f.severity)
    f.subject
    (Fmt.str "%a" pp_location f.location)
    f.rule f.message

let pp_report ppf fs =
  match fs with
  | [] -> Fmt.pf ppf "no findings@."
  | fs ->
      let fs = List.sort compare fs in
      List.iter (fun f -> Fmt.pf ppf "%a@." pp f) fs;
      Fmt.pf ppf "%d error(s), %d warning(s), %d info@." (count Error fs)
        (count Warning fs) (count Info fs)
