(* Exporters: OpenMetrics/Prometheus text exposition and JSON-lines
   time series.  Both render a frozen [Registry.snapshot], so output is
   deterministic whenever the scrape values are: registration order for
   metrics, sorted label keys, fixed escaping. *)

let escape_label b s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s

let add_labels b labels =
  match labels with
  | [] -> ()
  | labels ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b k;
          Buffer.add_string b "=\"";
          escape_label b v;
          Buffer.add_char b '"')
        labels;
      Buffer.add_char b '}'

let kind_label = function
  | Registry.Counter -> "counter"
  | Registry.Gauge | Registry.State -> "gauge"
  | Registry.Histogram -> "histogram"

(* The state metric's labels carry a placeholder (key, "") slot; expand
   it to (key, state). *)
let state_labels labels st =
  List.map (fun (k, v) -> if v = "" then (k, st) else (k, v)) labels

(* A sub-bucketed layout (the hires one has 305 slots) is mostly
   empty buckets, so its exports skip them: the openmetrics lines stay
   cumulative (an omitted line equals the one before it) and the JSON
   encodes [index, count] pairs.  Plain log2 layouts emit every bucket,
   as they always have. *)
let sparse (h : Instrument.hsnap) = h.layout.Tm_sim.Hist.sub_bits > 0

(* Cumulative [_bucket{le="..."}] lines plus [_sum]/[_count]. *)
let add_hist_sample b ~name ~labels (h : Instrument.hsnap) =
  let nbuckets = Array.length h.buckets and skip_empty = sparse h in
  let cum = ref 0 in
  for k = 0 to nbuckets - 1 do
    let c = h.buckets.(k) in
    cum := !cum + c;
    if (not skip_empty) || c > 0 || k = nbuckets - 1 then begin
      let le =
        if k = nbuckets - 1 then "+Inf"
        else string_of_int (Tm_sim.Hist.bucket_upper h.layout k)
      in
      Buffer.add_string b name;
      Buffer.add_string b "_bucket";
      add_labels b (labels @ [ ("le", le) ]);
      Buffer.add_string b (Fmt.str " %d\n" !cum)
    end
  done;
  Buffer.add_string b
    (Fmt.str "%s_sum%s %d\n" name
       (let lb = Buffer.create 16 in
        add_labels lb labels;
        Buffer.contents lb)
       h.sum);
  Buffer.add_string b
    (Fmt.str "%s_count%s %d\n" name
       (let lb = Buffer.create 16 in
        add_labels lb labels;
        Buffer.contents lb)
       h.count)

let add_sample b (s : Registry.sample) =
  match s.Registry.s_value with
  | Registry.Num v ->
      Buffer.add_string b s.Registry.s_name;
      add_labels b s.Registry.s_labels;
      Buffer.add_string b (Fmt.str " %d\n" v)
  | Registry.State_of { states; current } ->
      Array.iteri
        (fun i st ->
          Buffer.add_string b s.Registry.s_name;
          add_labels b (state_labels s.Registry.s_labels st);
          Buffer.add_string b (if i = current then " 1\n" else " 0\n"))
        states
  | Registry.Hist h ->
      add_hist_sample b ~name:s.Registry.s_name ~labels:s.Registry.s_labels h

let to_openmetrics (snap : Registry.snapshot) =
  let b = Buffer.create 4096 in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (s : Registry.sample) ->
      if not (Hashtbl.mem seen s.Registry.s_name) then begin
        Hashtbl.add seen s.Registry.s_name ();
        Buffer.add_string b
          (Fmt.str "# HELP %s %s\n" s.Registry.s_name s.Registry.s_help);
        Buffer.add_string b
          (Fmt.str "# TYPE %s %s\n" s.Registry.s_name
             (kind_label s.Registry.s_kind))
      end;
      add_sample b s)
    snap.Registry.samples;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* ---- a minimal OpenMetrics parser (round-trip tests, greps) ---- *)

type series = {
  se_name : string;
  se_labels : (string * string) list;
  se_value : float;
}

let parse_labels s =
  (* "k=\"v\",k2=\"v2\"" with the writer's escaping *)
  let out = ref [] in
  let n = String.length s in
  let buf = Buffer.create 16 in
  let i = ref 0 in
  while !i < n do
    Buffer.clear buf;
    while !i < n && s.[!i] <> '=' do
      Buffer.add_char buf s.[!i];
      incr i
    done;
    let key = Buffer.contents buf in
    if !i + 1 >= n || s.[!i + 1] <> '"' then failwith "parse_labels: no value";
    i := !i + 2;
    Buffer.clear buf;
    let fin = ref false in
    while not !fin do
      if !i >= n then failwith "parse_labels: unterminated value"
      else if s.[!i] = '\\' && !i + 1 < n then begin
        (match s.[!i + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | c -> Buffer.add_char buf c);
        i := !i + 2
      end
      else if s.[!i] = '"' then begin
        fin := true;
        incr i;
        if !i < n && s.[!i] = ',' then incr i
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    out := (key, Buffer.contents buf) :: !out
  done;
  List.rev !out

let parse_line line =
  let name_end =
    match String.index_opt line '{' with
    | Some i -> i
    | None -> (
        match String.index_opt line ' ' with
        | Some i -> i
        | None -> String.length line)
  in
  let se_name = String.sub line 0 name_end in
  let rest = String.sub line name_end (String.length line - name_end) in
  let se_labels, vstr =
    if rest <> "" && rest.[0] = '{' then
      match String.rindex_opt rest '}' with
      | Some j ->
          ( parse_labels (String.sub rest 1 (j - 1)),
            String.trim
              (String.sub rest (j + 1) (String.length rest - j - 1)) )
      | None -> failwith "parse_openmetrics: unterminated labels"
    else ([], String.trim rest)
  in
  { se_name; se_labels; se_value = float_of_string vstr }

let parse_openmetrics text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None else Some (parse_line line))

(* ---- JSON lines ---- *)

let add_json_labels b labels =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Tm_trace.Export.add_json_string b k;
      Buffer.add_char b ':';
      Tm_trace.Export.add_json_string b v)
    labels;
  Buffer.add_char b '}'

let to_jsonl (snap : Registry.snapshot) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Fmt.str "{\"ts\":%d,\"samples\":[" snap.Registry.ts);
  List.iteri
    (fun i (s : Registry.sample) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      Tm_trace.Export.add_json_string b s.Registry.s_name;
      Buffer.add_string b ",\"labels\":";
      (match s.Registry.s_value with
      | Registry.Num v ->
          add_json_labels b s.Registry.s_labels;
          Buffer.add_string b (Fmt.str ",\"value\":%d" v)
      | Registry.State_of { states; current } ->
          (* drop the placeholder state-key slot; the state goes in its
             own field *)
          add_json_labels b
            (List.filter (fun (_, v) -> v <> "") s.Registry.s_labels);
          Buffer.add_string b ",\"state\":";
          Tm_trace.Export.add_json_string b states.(current)
      | Registry.Hist h ->
          add_json_labels b s.Registry.s_labels;
          Buffer.add_string b
            (Fmt.str ",\"hist\":{\"count\":%d,\"sum\":%d,\"max\":%d,"
               h.count h.sum h.max_sample);
          (if sparse h then begin
              Buffer.add_string b "\"sparse\":[";
              let first = ref true in
              Array.iteri
                (fun k c ->
                  if c > 0 then begin
                    if not !first then Buffer.add_char b ',';
                    first := false;
                    Buffer.add_string b (Fmt.str "[%d,%d]" k c)
                  end)
                h.buckets
            end
            else begin
              Buffer.add_string b "\"buckets\":[";
              Array.iteri
                (fun k c ->
                  if k > 0 then Buffer.add_char b ',';
                  Buffer.add_string b (string_of_int c))
                h.buckets
            end);
          Buffer.add_string b "]}");
      Buffer.add_char b '}')
    snap.Registry.samples;
  Buffer.add_string b "]}";
  Buffer.contents b
