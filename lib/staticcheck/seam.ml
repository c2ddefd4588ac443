(* The machine-read seam contract.

   Rather than hard-coding the site vocabulary and the per-algorithm
   announcement tables, the checker parses them out of the same sources
   the compiler builds: the constructors of [Obs.site] and [Obs.cause]
   in [stm_core.ml], and the literal lists returned by [Algo.sites] plus
   the [core_of] dispatch in [stm.ml].  A site added to the seam or a
   core added to the zoo is picked up with no checker change — and a
   checker that fails to find the tables reports that as an error
   instead of silently passing.

   One vocabulary: a site is named by its constructor, and a conflict
   by its cause ([Obs.Conflict Obs.Lock_busy] is the site
   ["Lock_busy"]). *)

open Parsetree

type announcement = {
  an_algo : string;
  an_sites : string list;
  an_line : int;
}

type contract = {
  c_algos : string list;
  c_core_files : (string * string) list;
  c_announced : announcement list;
}

let announced c ~algo = List.find_opt (fun a -> a.an_algo = algo) c.c_announced

(* --- vocabulary: the Obs variant declarations in stm_core.ml --- *)

let ctor_names_of_type_decl (td : type_declaration) =
  match td.ptype_kind with
  | Ptype_variant ctors ->
      Some (List.map (fun c -> c.pcd_name.Location.txt) ctors)
  | _ -> None

(* The constructors of each variant type declared in a structure. *)
let variants items =
  List.concat_map
    (fun (si : structure_item) ->
      match si.pstr_desc with
      | Pstr_type (_, tds) ->
          List.filter_map
            (fun td ->
              Option.map
                (fun cs -> (td.ptype_name.Location.txt, cs))
                (ctor_names_of_type_decl td))
            tds
      | _ -> [])
    items

let module_items name structure =
  List.find_map
    (fun (si : structure_item) ->
      match si.pstr_desc with
      | Pstr_module { pmb_name = { txt = Some m; _ }; pmb_expr; _ }
        when m = name -> (
          match pmb_expr.pmod_desc with
          | Pmod_structure items -> Some items
          | _ -> None)
      | _ -> None)
    structure

let vocab_of_core (src : Source.t) =
  let types =
    variants (Option.value ~default:[] (module_items "Obs" src.ast))
  in
  match (List.assoc_opt "site" types, List.assoc_opt "cause" types) with
  | Some sites, Some causes ->
      Ok (List.filter (fun c -> c <> "Conflict") sites @ causes)
  | _ -> Error (Fmt.str "%s: cannot find types Obs.site and Obs.cause" src.path)

(* --- the Algo announcement table and core_of dispatch in stm.ml --- *)

let rec pattern_algos (p : pattern) =
  match p.ppat_desc with
  | Ppat_construct (lid, None) -> [ Source.lid_last lid.Location.txt ]
  | Ppat_or (a, b) -> pattern_algos a @ pattern_algos b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pattern_algos p
  | _ -> []

(* A table entry names a site: [Obs.Read], or [Obs.Conflict Obs.C] for
   the conflict of cause [C]. *)
let rec site_name (e : expression) =
  match e.pexp_desc with
  | Pexp_construct (lid, None) -> Some (Source.lid_last lid.Location.txt)
  | Pexp_construct (_, Some arg) -> site_name arg
  | _ -> None

let rec list_literal (e : expression) =
  match e.pexp_desc with
  | Pexp_construct ({ Location.txt = Longident.Lident "[]"; _ }, None) ->
      Some []
  | Pexp_construct
      ( { Location.txt = Longident.Lident "::"; _ },
        Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ } ) -> (
      match (site_name hd, list_literal tl) with
      | Some s, Some rest -> Some (s :: rest)
      | _ -> None)
  | _ -> None

let table_cases (e : expression) =
  match e.pexp_desc with
  | Pexp_function cases -> cases
  | Pexp_constraint ({ pexp_desc = Pexp_function cases; _ }, _) -> cases
  | _ -> []

let announcements_of_binding (vb : value_binding) =
  List.concat_map
    (fun (c : case) ->
      match list_literal c.pc_rhs with
      | None -> []
      | Some sites ->
          List.map
            (fun algo ->
              {
                an_algo = algo;
                an_sites = sites;
                an_line = Source.line_of c.pc_rhs.pexp_loc;
              })
            (pattern_algos c.pc_lhs))
    (table_cases vb.pvb_expr)

(* [core_of] maps each Algo constructor to a first-class core module:
   [| Algo.Tl2 -> (module Stm_tl2)]. *)
let core_files_of_binding (vb : value_binding) =
  List.concat_map
    (fun (c : case) ->
      match c.pc_rhs.pexp_desc with
      | Pexp_pack { pmod_desc = Pmod_ident lid; _ } ->
          let m = Source.lid_last lid.Location.txt in
          List.map (fun a -> (a, m)) (pattern_algos c.pc_lhs)
      | _ -> [])
    (table_cases vb.pvb_expr)

let bindings items =
  List.concat_map
    (fun (si : structure_item) ->
      match si.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.filter_map
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var v
              | Ppat_constraint ({ ppat_desc = Ppat_var v; _ }, _) ->
                  Some (v.Location.txt, vb)
              | _ -> None)
            vbs
      | _ -> [])
    items

let contract_of_facade (src : Source.t) =
  let algo_items =
    Option.value ~default:[] (module_items "Algo" src.ast)
  in
  let algos =
    Option.value ~default:[] (List.assoc_opt "t" (variants algo_items))
  in
  let core_files =
    List.concat_map core_files_of_binding
      (List.filter_map
         (fun (n, vb) -> if n = "core_of" then Some vb else None)
         (bindings src.ast))
  in
  let announced =
    List.concat_map announcements_of_binding
      (List.filter_map
         (fun (n, vb) -> if n = "sites" then Some vb else None)
         (bindings algo_items))
  in
  if algos = [] then
    Error (Fmt.str "%s: cannot find module Algo's type t" src.path)
  else if core_files = [] then
    Error (Fmt.str "%s: cannot find the core_of dispatch table" src.path)
  else if announced = [] then
    Error (Fmt.str "%s: cannot find the Algo.sites announcement table" src.path)
  else
    Ok { c_algos = algos; c_core_files = core_files; c_announced = announced }

(* --- emission sites --- *)

type site = { s_name : string; s_line : int }

(* Every [Obs.X] constructor of the vocabulary in expression position
   is a site reached: the cores only mention a site constructor when
   handing it to the seam.  Pattern positions (the [match Obs.decide
   ... with] arms) are not expressions and never match.  A call of a
   [helpers] function (a substrate function the core shares, such as
   [write_back]) reaches that function's sites at the call line. *)
let collect ?(helpers = []) vocab walk =
  let acc = ref [] in
  let add line names =
    List.iter (fun s_name -> acc := { s_name; s_line = line } :: !acc) names
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          let line = Source.line_of e.pexp_loc in
          (match e.pexp_desc with
          | Pexp_construct ({ txt; _ }, _)
            when Source.lid_parent txt = Some "Obs"
                 && List.mem (Source.lid_last txt) vocab ->
              add line [ Source.lid_last txt ]
          | Pexp_ident { txt; _ } when Source.lid_parent txt = None ->
              add line
                (Option.value ~default:[]
                   (List.assoc_opt (Source.lid_last txt) helpers))
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  walk iter;
  List.rev !acc

let sites ?helpers vocab (src : Source.t) =
  collect ?helpers vocab (fun it -> it.structure it src.ast)

(* The sites each top-level function of the substrate reaches. *)
let helper_sites vocab (src : Source.t) =
  List.filter_map
    (fun (name, vb) ->
      let names =
        collect vocab (fun it -> it.value_binding it vb)
        |> List.map (fun s -> s.s_name)
      in
      if names = [] then None else Some (name, List.sort_uniq compare names))
    (bindings src.ast)
