(* armed-leak: arming the seam without a paired disarm.

   Subscribing to [Obs] ([Obs.subscribe], or a subscriber's own
   [install]) and starting a trace session ([Trace.start],
   [Trace.start_null]) flip the process-global armed flag.  A test or
   bench step that arms and then exits without disarming leaves every
   subsequent test of the binary running armed: the <100 ns disarmed
   bench gates measure the wrong thing and fault plans fire in
   unrelated tests.  The rule requires each top-level definition that
   arms to also mention a disarm — [unsubscribe], [uninstall] or
   [recover] (which drops every subscriber but a trace session), or
   [Trace.stop] for a trace session — as an application or as a bare
   ident ([Fun.protect ~finally:Stm.Trace.stop] counts).

   Scope deliberately per top-level structure item: the repo's
   discipline is that one test function owns the whole
   arm/observe/disarm lifecycle (helpers that split the pair across
   definitions can carry a [tmstatic: allow armed-leak]). *)

open Parsetree

let rule = "armed-leak"

let is_trace_start p l = p = Some "Trace" && (l = "start" || l = "start_null")
let is_subscribe p l = p <> None && (l = "subscribe" || l = "install")

let check (src : Source.t) =
  List.concat_map
    (fun (si : structure_item) ->
      (* Every module-qualified ident in the definition, with its line. *)
      let idents = ref [] in
      let iter =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun self e ->
              (match e.pexp_desc with
              | Pexp_ident { Location.txt = lid; loc } ->
                  idents :=
                    ( Source.lid_parent lid,
                      Source.lid_last lid,
                      Source.line_of loc )
                    :: !idents
              | _ -> ());
              Ast_iterator.default_iterator.expr self e);
        }
      in
      iter.structure_item iter si;
      let mentions f = List.exists (fun (p, l, _) -> f p l) !idents in
      let unsubscribed =
        mentions (fun _ l ->
            l = "unsubscribe" || l = "uninstall" || l = "recover")
      and stopped = mentions (fun p l -> p = Some "Trace" && l = "stop") in
      List.filter_map
        (fun (p, l, line) ->
          let leak, disarm =
            if is_trace_start p l then (not stopped, "Trace.stop")
            else if is_subscribe p l then
              (not unsubscribed, "unsubscribe / recover")
            else (false, "")
          in
          if leak && not (Source.allows src ~rule ~line) then
            Some
              (Tm_analysis.Finding.v ~rule ~severity:Tm_analysis.Finding.Error
                 ~subject:src.Source.path
                 ~location:(Tm_analysis.Finding.At_line line)
                 (Fmt.str
                    "%s.%s armed here with no %s in the same top-level \
                     definition: later tests in this binary run armed"
                    (Option.get p) l disarm))
          else None)
        (List.rev !idents))
    src.ast
