(* txn-purity: transaction bodies must be rollbackable.

   [Stm.atomically f] may run [f] many times (conflicts, chaos aborts,
   [Retry]) and abandon any non-final run's effects.  Every effect in
   the body other than t-variable access therefore either multiplies
   (I/O, spawning) or leaks rolled-back state (mutation of anything
   that outlives the attempt).  The rule walks every [atomically]
   body and flags:

   - errors: effects that cannot be undone at all — console/channel
     I/O, [Printf]/[Format]/[Fmt] printing, [Random] draws,
     [Domain.spawn]/[join], [Mutex]/[Condition]/[Semaphore] operations,
     [Unix] calls, [exit];
   - warnings: mutation of state created *outside* the body —
     [:=]/[incr]/[decr], record/array field assignment, [Atomic]
     read-modify-writes and mutating stdlib containers ([Hashtbl],
     [Buffer], [Queue], [Stack], [Bytes], [Array]) — unless the
     mutated value is let-bound to a fresh allocation inside the body
     (a per-attempt ref is retry-safe by construction).

   Escape hatch: a [tmstatic: allow txn-purity] comment on the
   offending line or the line above (for deliberate effects, e.g. a
   test asserting how often a body re-runs). *)

open Parsetree

let rule = "txn-purity"

(* Unqualified (or [Stdlib.]-qualified) functions that do I/O or
   otherwise escape the attempt. *)
let banned_stdlib =
  [
    "print_string"; "print_bytes"; "print_int"; "print_char"; "print_float";
    "print_endline"; "print_newline"; "prerr_string"; "prerr_bytes";
    "prerr_int"; "prerr_char"; "prerr_float"; "prerr_endline";
    "prerr_newline"; "read_line"; "read_int"; "read_int_opt"; "read_float";
    "read_float_opt"; "output_string"; "output_bytes"; "output_char";
    "output_value"; "output_byte"; "output_binary_int"; "input_line";
    "input_char"; "input_byte"; "input_value"; "open_in"; "open_in_bin";
    "open_out"; "open_out_bin"; "close_in"; "close_out"; "flush";
    "flush_all"; "exit"; "at_exit";
  ]

(* Whole modules whose calls are non-rollbackable inside a body. *)
let banned_modules =
  [ "Random"; "Mutex"; "Condition"; "Semaphore"; "Unix"; "Out_channel";
    "In_channel" ]

(* Printing entry points of the formatting libraries (writing to a
   caller-supplied buffer formatter would be fine, but none of the
   tree's transaction bodies format at all, so the common std-output
   entry points are enough). *)
let banned_printers =
  [
    ("Printf", [ "printf"; "eprintf"; "fprintf"; "kfprintf" ]);
    ("Format", [ "printf"; "eprintf"; "fprintf"; "print_string"; "print_newline" ]);
    ("Fmt", [ "pr"; "epr"; "pf" ]);
  ]

let banned_domain = [ "spawn"; "join" ]

(* Mutating operations of stdlib containers, flagged when the mutated
   container was not created inside the body. *)
let mutators =
  [
    ("Hashtbl", [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]);
    ("Buffer", [ "add_string"; "add_char"; "add_bytes"; "add_substring";
                 "add_buffer"; "clear"; "reset"; "truncate" ]);
    ("Queue", [ "add"; "push"; "pop"; "take"; "clear"; "transfer" ]);
    ("Stack", [ "push"; "pop"; "clear" ]);
    ("Bytes", [ "set"; "fill"; "blit"; "blit_string" ]);
    ("Array", [ "set"; "fill"; "blit"; "sort" ]);
    ("Atomic", [ "set"; "exchange"; "compare_and_set"; "fetch_and_add";
                 "incr"; "decr" ]);
  ]

(* Allocations that make the bound name attempt-local. *)
let fresh_allocators =
  [
    (None, [ "ref" ]);
    (Some "Atomic", [ "make" ]);
    (Some "Buffer", [ "create" ]);
    (Some "Hashtbl", [ "create" ]);
    (Some "Queue", [ "create" ]);
    (Some "Stack", [ "create" ]);
    (Some "Array", [ "make"; "init"; "copy" ]);
    (Some "Bytes", [ "create"; "make"; "copy" ]);
  ]

module Locals = Set.Make (String)

let ident_of (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { Location.txt = lid; _ } -> Some lid
  | _ -> None

let is_local locals (e : expression) =
  match ident_of e with
  | Some (Longident.Lident v) -> Locals.mem v locals
  | _ -> false

let is_fresh_alloc (e : expression) =
  match e.pexp_desc with
  | Pexp_apply (fn, _) -> (
      match ident_of fn with
      | Some lid ->
          let parent = Source.lid_parent lid and last = Source.lid_last lid in
          List.exists
            (fun (m, fns) -> m = parent && List.mem last fns)
            fresh_allocators
      | None -> false)
  | Pexp_record _ | Pexp_array _ -> true
  | _ -> false

type offence = { o_severity : Tm_analysis.Finding.severity; o_what : string }

(* Classify an application head: [Some offence] if calling it inside a
   transaction body is an effect we flag. [first_arg_local] suppresses
   the container mutators. *)
let classify_apply locals (fn : expression) (args : (Asttypes.arg_label * expression) list) =
  match ident_of fn with
  | None -> None
  | Some lid -> (
      let parent = Source.lid_parent lid and last = Source.lid_last lid in
      let first_arg_local =
        match args with (_, a) :: _ -> is_local locals a | [] -> false
      in
      match parent with
      | None | Some "Stdlib" ->
          if List.mem last banned_stdlib then
            Some
              {
                o_severity = Tm_analysis.Finding.Error;
                o_what = Fmt.str "%s (channel I/O / process effect)" last;
              }
          else if (last = ":=" || last = "incr" || last = "decr")
                  && not first_arg_local
          then
            Some
              {
                o_severity = Tm_analysis.Finding.Warning;
                o_what =
                  Fmt.str "%s on a ref created outside the transaction body"
                    last;
              }
          else None
      | Some m ->
          if List.mem m banned_modules then
            Some
              {
                o_severity = Tm_analysis.Finding.Error;
                o_what = Fmt.str "%s.%s (non-rollbackable effect)" m last;
              }
          else if m = "Domain" && List.mem last banned_domain then
            Some
              {
                o_severity = Tm_analysis.Finding.Error;
                o_what = Fmt.str "Domain.%s (spawned work cannot be rolled back)" last;
              }
          else if
            List.exists
              (fun (pm, fns) -> pm = m && List.mem last fns)
              banned_printers
          then
            Some
              {
                o_severity = Tm_analysis.Finding.Error;
                o_what = Fmt.str "%s.%s (printing escapes the attempt)" m last;
              }
          else if
            List.exists (fun (mm, fns) -> mm = m && List.mem last fns) mutators
            && not first_arg_local
          then
            Some
              {
                o_severity = Tm_analysis.Finding.Warning;
                o_what =
                  Fmt.str "%s.%s on state created outside the transaction body"
                    m last;
              }
          else None)

let check (src : Source.t) =
  let findings = ref [] in
  let report severity line what =
    if not (Source.allows src ~rule ~line) then
      findings :=
        Tm_analysis.Finding.v ~rule ~severity ~subject:src.Source.path
          ~location:(Tm_analysis.Finding.At_line line)
          (Fmt.str "%s inside an atomically body is not rolled back on abort"
             what)
        :: !findings
  in
  (* Walk a transaction body, tracking names bound to attempt-local
     allocations. *)
  let rec walk_body locals (e : expression) =
    match e.pexp_desc with
    | Pexp_let (_, vbs, body) ->
        List.iter (fun vb -> walk_body locals vb.pvb_expr) vbs;
        let locals =
          List.fold_left
            (fun locals vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var v when is_fresh_alloc vb.pvb_expr ->
                  Locals.add v.Location.txt locals
              | _ -> locals)
            locals vbs
        in
        walk_body locals body
    | Pexp_apply (fn, args) ->
        (match classify_apply locals fn args with
        | Some o ->
            report o.o_severity (Source.line_of e.pexp_loc) o.o_what
        | None -> ());
        walk_body locals fn;
        List.iter (fun (_, a) -> walk_body locals a) args
    | Pexp_setfield (r, _, v) ->
        if not (is_local locals r) then
          report Tm_analysis.Finding.Warning (Source.line_of e.pexp_loc)
            "field assignment on state created outside the transaction body";
        walk_body locals r;
        walk_body locals v
    | Pexp_setinstvar (_, v) ->
        report Tm_analysis.Finding.Warning (Source.line_of e.pexp_loc)
          "instance-variable assignment";
        walk_body locals v
    | Pexp_sequence (a, b) ->
        walk_body locals a;
        walk_body locals b
    | Pexp_ifthenelse (c, t, e') ->
        walk_body locals c;
        walk_body locals t;
        Option.iter (walk_body locals) e'
    | Pexp_fun (_, default, _, body) ->
        Option.iter (walk_body locals) default;
        walk_body locals body
    | Pexp_function cases -> List.iter (walk_case locals) cases
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        walk_body locals scrut;
        List.iter (walk_case locals) cases
    | Pexp_constraint (e, _) | Pexp_open (_, e) | Pexp_lazy e ->
        walk_body locals e
    | _ ->
        let sub =
          {
            Ast_iterator.default_iterator with
            expr = (fun _ e' -> walk_body locals e');
          }
        in
        Ast_iterator.default_iterator.expr sub e
  and walk_case locals (c : case) =
    Option.iter (walk_body locals) c.pc_guard;
    walk_body locals c.pc_rhs
  in
  (* Find [.. atomically (fun () -> body) ..] applications anywhere in
     the file (qualified or not: [Stm.atomically], [Tm_stm.Stm.atomically]
     and a locally-opened [atomically] all count). *)
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (fn, args) when
              (match ident_of fn with
              | Some lid -> Source.lid_last lid = "atomically"
              | None -> false) ->
              List.iter
                (fun (_, (a : expression)) ->
                  match a.pexp_desc with
                  | Pexp_fun (_, _, _, body) -> walk_body Locals.empty body
                  | _ -> ())
                args
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.structure iter src.ast;
  List.sort_uniq Tm_analysis.Finding.compare !findings
