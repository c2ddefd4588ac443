(* exported-unused: an interface [val] that nothing outside its own
   module names.

   Each [val v] of [lib/d/m.mli] (and of a [module X : sig ... end]
   nested in it, qualified by [X]) counts as used when a user file
   other than [lib/d/m.ml] names [M.v], at any qualification depth, or
   names a bare [v] and opens [M] somewhere ([open], [open!], [let
   open], [M.( ... )] or [include]).  Only expression identifiers
   count, and a bare name in such a file counts whatever it binds, so
   the rule is a lower bound on dead surface, never a false alarm about
   a name someone uses.

   Users under [test/] are tests: an export only they name is info
   (listed, not counted against a clean tree), one nobody names is a
   warning.  [tmstatic: allow exported-unused REASON] on the [val]
   line or the line above it suppresses the finding; an allow that
   gives no reason does not. *)

open Parsetree

let rule = "exported-unused"

type export = { e_module : string; e_name : string; e_line : int }

let rec exports m (items : signature) =
  List.concat_map
    (fun (si : signature_item) ->
      match si.psig_desc with
      | Psig_value vd ->
          [ { e_module = m; e_name = vd.pval_name.txt;
              e_line = Source.line_of vd.pval_loc } ]
      | Psig_module
          { pmd_name = { txt = Some x; _ };
            pmd_type = { pmty_desc = Pmty_signature items; _ }; _ } ->
          exports x items
      | _ -> [])
    items

(* Every expression identifier of [src] as (qualifier, name), the
   qualifier also under the module a [module X = A.M] alias names, and
   a bare name also under every module the file opens. *)
let idents (src : Source.t) =
  let acc = Hashtbl.create 256 and aliases = Hashtbl.create 8 in
  let opens = ref [] in
  let alias x (me : module_expr) =
    match (x, me.pmod_desc) with
    | Some x, Pmod_ident { txt = lid; _ } ->
        Hashtbl.replace aliases x (Source.lid_last lid)
    | _ -> ()
  in
  let opened (me : module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt = lid; _ } -> opens := Source.lid_last lid :: !opens
    | _ -> ()
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      module_binding =
        (fun self mb ->
          alias mb.pmb_name.txt mb.pmb_expr;
          Ast_iterator.default_iterator.module_binding self mb);
      open_declaration =
        (fun self od ->
          opened od.popen_expr;
          Ast_iterator.default_iterator.open_declaration self od);
      include_declaration =
        (fun self id ->
          opened id.pincl_mod;
          Ast_iterator.default_iterator.include_declaration self id);
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_letmodule ({ txt; _ }, me, _) -> alias txt me
          | Pexp_ident { txt = lid; _ } ->
              Hashtbl.replace acc (Source.lid_parent lid, Source.lid_last lid) ()
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.structure iter src.ast;
  let resolve m = Option.value (Hashtbl.find_opt aliases m) ~default:m in
  let opens = List.sort_uniq compare (List.map resolve !opens) in
  Hashtbl.iter
    (fun (q, v) () ->
      match q with
      | Some q -> Hashtbl.replace acc (Some (resolve q), v) ()
      | None -> List.iter (fun m -> Hashtbl.replace acc (Some m, v) ()) opens)
    (Hashtbl.copy acc);
  acc

let own_file (intf : Source.intf) = Filename.remove_extension intf.path ^ ".ml"

let is_test (src : Source.t) = String.starts_with ~prefix:"test/" src.path

(* An allow that names the rule and says something more. *)
let allowed (intf : Source.intf) line =
  List.exists
    (fun (a : Source.allow) ->
      (a.a_line = line || a.a_line = line - 1)
      && List.mem rule a.a_rules
      && List.length a.a_rules > 1)
    intf.allows

let check ~interfaces ~users =
  let users = List.map (fun src -> (src, idents src)) users in
  List.concat_map
    (fun (intf : Source.intf) ->
      let own = own_file intf in
      let m =
        String.capitalize_ascii
          (Filename.remove_extension (Filename.basename intf.path))
      in
      List.filter_map
        (fun e ->
          let names (src, ids) =
            src.Source.path <> own && Hashtbl.mem ids (Some e.e_module, e.e_name)
          in
          let named = List.filter names users in
          let qualified = e.e_module ^ "." ^ e.e_name in
          let finding severity msg =
            Some
              (Tm_analysis.Finding.v ~rule ~severity ~subject:intf.path
                 ~location:(Tm_analysis.Finding.At_line e.e_line)
                 (Fmt.str "%s %s" qualified msg))
          in
          if
            List.exists (fun (src, _) -> not (is_test src)) named
            || allowed intf e.e_line
          then None
          else if named <> [] then
            finding Tm_analysis.Finding.Info "is used only by tests"
          else
            finding Tm_analysis.Finding.Warning
              (Fmt.str "has no user outside %s" (Filename.basename own)))
        (exports m intf.ast))
    interfaces
