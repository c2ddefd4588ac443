type proc = int
type tvar = int
type value = int

type invocation = Read of tvar | Write of tvar * value | Try_commit
type response = Value of value | Ok_written | Committed | Aborted
type t = Inv of proc * invocation | Res of proc * response

let proc = function Inv (p, _) | Res (p, _) -> p

let is_invocation = function Inv _ -> true | Res _ -> false
let is_response = function Res _ -> true | Inv _ -> false

let is_commit = function Res (_, Committed) -> true | Inv _ | Res _ -> false
let is_abort = function Res (_, Aborted) -> true | Inv _ | Res _ -> false

let is_try_commit = function
  | Inv (_, Try_commit) -> true
  | Inv _ | Res _ -> false

let matches inv res =
  match (inv, res) with
  | Read _, (Value _ | Aborted) -> true
  | Read _, (Ok_written | Committed) -> false
  | Write _, (Ok_written | Aborted) -> true
  | Write _, (Value _ | Committed) -> false
  | Try_commit, (Committed | Aborted) -> true
  | Try_commit, (Value _ | Ok_written) -> false

let tvar_of_invocation = function
  | Read x | Write (x, _) -> Some x
  | Try_commit -> None

let equal_invocation a b =
  match (a, b) with
  | Read x, Read y -> x = y
  | Write (x, v), Write (y, w) -> x = y && v = w
  | Try_commit, Try_commit -> true
  | (Read _ | Write _ | Try_commit), _ -> false

let equal_response a b =
  match (a, b) with
  | Value v, Value w -> v = w
  | Ok_written, Ok_written | Committed, Committed | Aborted, Aborted -> true
  | (Value _ | Ok_written | Committed | Aborted), _ -> false

let equal a b =
  match (a, b) with
  | Inv (p, i), Inv (q, j) -> p = q && equal_invocation i j
  | Res (p, r), Res (q, s) -> p = q && equal_response r s
  | (Inv _ | Res _), _ -> false

let compare = Stdlib.compare

let pp_invocation ppf = function
  | Read x -> Fmt.pf ppf "x%d.read" x
  | Write (x, v) -> Fmt.pf ppf "x%d.write(%d)" x v
  | Try_commit -> Fmt.pf ppf "tryC"

let pp_response ppf = function
  | Value v -> Fmt.pf ppf "%d" v
  | Ok_written -> Fmt.pf ppf "ok"
  | Committed -> Fmt.pf ppf "C"
  | Aborted -> Fmt.pf ppf "A"

let pp ppf = function
  | Inv (p, i) -> Fmt.pf ppf "%a_%d" pp_invocation i p
  | Res (p, r) -> Fmt.pf ppf "%a_%d" pp_response r p

let to_string e = Fmt.str "%a" pp e

type responses = {
  r_ok : t array;
  r_committed : t array;
  r_aborted : t array;
  r_values : t array array;
}

let responses ~nprocs ~values =
  let per f = Array.init (nprocs + 1) f in
  {
    r_ok = per (fun p -> Res (p, Ok_written));
    r_committed = per (fun p -> Res (p, Committed));
    r_aborted = per (fun p -> Res (p, Aborted));
    r_values = per (fun p -> Array.init values (fun v -> Res (p, Value v)));
  }

let response t p r =
  if p < 0 || p >= Array.length t.r_ok then Res (p, r)
  else
    match r with
    | Ok_written -> t.r_ok.(p)
    | Committed -> t.r_committed.(p)
    | Aborted -> t.r_aborted.(p)
    | Value v ->
        let vs = t.r_values.(p) in
        if v >= 0 && v < Array.length vs then vs.(v) else Res (p, r)
