type category = Txn | Lock | Validation | Backoff | Fault | Monitor | Sched

type arg = Int of int | Str of string

type phase = Span_begin | Span_end | Instant | Counter of int | Metadata

type t = {
  ts : int;
  pid : int;
  tid : int;
  cat : category;
  name : string;
  phase : phase;
  args : (string * arg) list;
}

let category_label = function
  | Txn -> "txn"
  | Lock -> "lock"
  | Validation -> "validation"
  | Backoff -> "backoff"
  | Fault -> "fault"
  | Monitor -> "monitor"
  | Sched -> "sched"

let category_of_label = function
  | "txn" -> Some Txn
  | "lock" -> Some Lock
  | "validation" -> Some Validation
  | "backoff" -> Some Backoff
  | "fault" -> Some Fault
  | "monitor" -> Some Monitor
  | "sched" -> Some Sched
  | _ -> None

let phase_code = function
  | Span_begin -> "B"
  | Span_end -> "E"
  | Instant -> "i"
  | Counter _ -> "C"
  | Metadata -> "M"

let instant ~ts ?(pid = 0) ~tid cat name args =
  { ts; pid; tid; cat; name; phase = Instant; args }

let counter ~ts ?(pid = 0) ~tid cat name v =
  { ts; pid; tid; cat; name; phase = Counter v; args = [] }

let span_begin ~ts ?(pid = 0) ~tid cat name args =
  { ts; pid; tid; cat; name; phase = Span_begin; args }

let span_end ~ts ?(pid = 0) ~tid cat name args =
  { ts; pid; tid; cat; name; phase = Span_end; args }

let equal (a : t) (b : t) = a = b

let pp_arg ppf (k, v) =
  match v with
  | Int n -> Fmt.pf ppf "%s=%d" k n
  | Str s -> Fmt.pf ppf "%s=%s" k (String.escaped s)

let pp ppf e =
  Fmt.pf ppf "%6d %d/%-2d %-10s %-2s %s" e.ts e.pid e.tid
    (category_label e.cat) (phase_code e.phase) e.name;
  (match e.phase with Counter v -> Fmt.pf ppf "=%d" v | _ -> ());
  List.iter (fun a -> Fmt.pf ppf " %a" pp_arg a) e.args

(* --- finding-friendly accessors (used by Tm_analysis) --- *)

let arg_int e k =
  match List.assoc_opt k e.args with Some (Int v) -> Some v | _ -> None

let arg_str e k =
  match List.assoc_opt k e.args with Some (Str s) -> Some s | _ -> None

let tvar e = arg_int e "tvar"

let by_ts es =
  List.stable_sort (fun (a : t) b -> Int.compare a.ts b.ts) es
