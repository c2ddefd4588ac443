(* Chrome trace_event array format.  Keys are emitted in a fixed order and
   integers are plain decimals, so equal event lists serialize to
   byte-identical strings — the determinism tests compare raw bytes. *)

let add_json_string b s =
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

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  add_json_string b s;
  Buffer.contents b

let add_args b args =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      add_json_string b k;
      Buffer.add_char b ':';
      match v with
      | Trace_event.Int n -> Buffer.add_string b (string_of_int n)
      | Trace_event.Str s -> add_json_string b s)
    args;
  Buffer.add_char b '}'

let add_event b (e : Trace_event.t) =
  let args =
    match e.phase with
    | Trace_event.Counter v -> ("value", Trace_event.Int v) :: e.args
    | _ -> e.args
  in
  Buffer.add_string b "{\"name\":";
  add_json_string b e.name;
  Buffer.add_string b ",\"cat\":\"";
  Buffer.add_string b (Trace_event.category_label e.cat);
  Buffer.add_string b "\",\"ph\":\"";
  Buffer.add_string b (Trace_event.phase_code e.phase);
  Buffer.add_string b "\",\"ts\":";
  Buffer.add_string b (string_of_int e.ts);
  Buffer.add_string b ",\"pid\":";
  Buffer.add_string b (string_of_int e.pid);
  Buffer.add_string b ",\"tid\":";
  Buffer.add_string b (string_of_int e.tid);
  (match e.phase with
  | Trace_event.Instant -> Buffer.add_string b ",\"s\":\"t\""
  | _ -> ());
  Buffer.add_string b ",\"args\":";
  add_args b args;
  Buffer.add_char b '}'

let chrome_buffer events =
  let b = Buffer.create (256 * (1 + List.length events)) in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      add_event b e)
    events;
  Buffer.add_string b "\n]\n";
  b

let chrome_string events = Buffer.contents (chrome_buffer events)

let to_chrome_channel oc events = Buffer.output_buffer oc (chrome_buffer events)

(* --- minimal JSON reader, just enough for the format above --- *)

type json =
  | J_int of int
  | J_str of string
  | J_list of json list
  | J_obj of (string * json) list

exception Parse_error of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char b '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char b '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char b '/'; go ()
          | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else fail "non-ascii \\u escape unsupported";
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_int () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while
      !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail "expected integer";
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "bad integer"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> J_str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); J_obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          J_obj (members [])
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); J_list [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elems (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          J_list (elems [])
    | Some ('-' | '0' .. '9') -> J_int (parse_int ())
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing data";
  v

let event_of_json j =
  let fail msg = raise (Parse_error msg) in
  let fields = match j with J_obj kvs -> kvs | _ -> fail "event not an object" in
  let find k = List.assoc_opt k fields in
  let get_str k =
    match find k with
    | Some (J_str s) -> s
    | _ -> fail (Printf.sprintf "missing string field %S" k)
  in
  let get_int k =
    match find k with
    | Some (J_int v) -> v
    | _ -> fail (Printf.sprintf "missing integer field %S" k)
  in
  let cat =
    let label = get_str "cat" in
    match Trace_event.category_of_label label with
    | Some c -> c
    | None -> fail (Printf.sprintf "unknown category %S" label)
  in
  let args =
    match find "args" with
    | Some (J_obj kvs) ->
        List.map
          (fun (k, v) ->
            match v with
            | J_int n -> (k, Trace_event.Int n)
            | J_str s -> (k, Trace_event.Str s)
            | _ -> fail "unsupported arg value")
          kvs
    | None -> []
    | Some _ -> fail "args not an object"
  in
  let phase, args =
    match get_str "ph" with
    | "B" -> (Trace_event.Span_begin, args)
    | "E" -> (Trace_event.Span_end, args)
    | "i" | "I" -> (Trace_event.Instant, args)
    | "M" -> (Trace_event.Metadata, args)
    | "C" -> (
        match List.assoc_opt "value" args with
        | Some (Trace_event.Int v) ->
            (Trace_event.Counter v, List.remove_assoc "value" args)
        | _ -> fail "counter event without integer \"value\" arg")
    | code -> fail (Printf.sprintf "unknown phase %S" code)
  in
  {
    Trace_event.ts = get_int "ts";
    pid = get_int "pid";
    tid = get_int "tid";
    cat;
    name = get_str "name";
    phase;
    args;
  }

let of_chrome_string s =
  try
    match parse_json s with
    | J_list items -> Ok (List.map event_of_json items)
    | _ -> Error "top-level JSON value is not an array"
  with Parse_error msg -> Error msg

let pp_text ppf events =
  List.iter (fun e -> Fmt.pf ppf "%a@." Trace_event.pp e) events

let text_string events = Fmt.str "%a" pp_text events
