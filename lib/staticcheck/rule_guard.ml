(* seam-guard: every site must be dominated by the disarmed check — the
   one [Atomic.get Obs.armed] load that keeps the hot path under
   100 ns/event when nothing is subscribed (bench §P5/P7/P8/P10).  A
   site that skips the guard loads the subscriber list unconditionally
   and silently breaks that budget on every disarmed run.

   The domination analysis is lexical: whether the guard holds flows
   through let/sequence/if/match/closure structure.  The guard holds
   under [if Atomic.get Obs.armed then] (any qualification depth),
   under a variable let-bound to it ([let armed = Atomic.get Obs.armed
   in ... if armed then ...]) and under a conjunction with it
   ([if stolen && Atomic.get Obs.armed then ...]).  Sites are
   applications of [Obs.decide], [Obs.note] and [Obs.fire]. *)

open Parsetree

let rule = "seam-guard"

(* Whether an expression that evaluates to [true] establishes the
   guard; [env] holds the variables bound to it. *)
let rec guards env (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { Location.txt = Longident.Lident v; _ } -> List.mem v env
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { Location.txt = get; _ }; _ },
        [
          ( Asttypes.Nolabel,
            { pexp_desc = Pexp_ident { Location.txt = flag; _ }; _ } );
        ] ) ->
      Source.lid_parent get = Some "Atomic"
      && Source.lid_last get = "get"
      && Source.lid_parent flag = Some "Obs"
      && Source.lid_last flag = "armed"
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { Location.txt = Longident.Lident "&&"; _ }; _ },
        [ (_, a); (_, b) ] ) ->
      guards env a || guards env b
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> guards env e
  | _ -> false

let is_site (fn : expression) =
  match fn.pexp_desc with
  | Pexp_ident { Location.txt = lid; _ } -> (
      Source.lid_parent lid = Some "Obs"
      &&
      match Source.lid_last lid with
      | "decide" | "note" | "fire" -> true
      | _ -> false)
  | _ -> false

let check (src : Source.t) =
  let findings = ref [] in
  let report (e : expression) =
    let line = Source.line_of e.pexp_loc in
    if not (Source.allows src ~rule ~line) then
      findings :=
        Tm_analysis.Finding.v ~rule ~severity:Tm_analysis.Finding.Error
          ~subject:src.path
          ~location:(Tm_analysis.Finding.At_line line)
          "Obs site not dominated by its [if Atomic.get Obs.armed then] \
           disarmed check"
        :: !findings
  in
  (* [env]: variables bound to the guard in scope; [guarded]: whether
     the guard holds on the current control path. *)
  let rec walk env guarded (e : expression) =
    match e.pexp_desc with
    | Pexp_ifthenelse (cond, then_, else_) ->
        walk env guarded cond;
        walk env (guarded || guards env cond) then_;
        Option.iter (walk env guarded) else_
    | Pexp_let (_, vbs, body) ->
        List.iter (fun vb -> walk env guarded vb.pvb_expr) vbs;
        let env =
          List.fold_left
            (fun env vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var v when guards env vb.pvb_expr -> v.Location.txt :: env
              | _ -> env)
            env vbs
        in
        walk env guarded body
    | Pexp_sequence (a, b) ->
        walk env guarded a;
        walk env guarded b
    | Pexp_apply (fn, args) ->
        if is_site fn && not guarded then report e;
        walk env guarded fn;
        List.iter (fun (_, a) -> walk env guarded a) args
    | Pexp_fun (_, default, _, body) ->
        Option.iter (walk env guarded) default;
        walk env guarded body
    | Pexp_function cases -> List.iter (walk_case env guarded) cases
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        walk env guarded scrut;
        List.iter (walk_case env guarded) cases
    | Pexp_constraint (e, _) | Pexp_open (_, e) | Pexp_lazy e ->
        walk env guarded e
    | _ ->
        (* Generic fallback: visit immediate sub-expressions under the
           same guard (tuples, records, constructors, loops, ...). *)
        let sub =
          {
            Ast_iterator.default_iterator with
            expr = (fun _ e' -> walk env guarded e');
          }
        in
        Ast_iterator.default_iterator.expr sub e
  and walk_case env guarded (c : case) =
    Option.iter (walk env guarded) c.pc_guard;
    walk env guarded c.pc_rhs
  in
  let iter =
    { Ast_iterator.default_iterator with expr = (fun _ e -> walk [] false e) }
  in
  iter.structure iter src.structure;
  List.rev !findings
