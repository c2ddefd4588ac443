(** A parsed OCaml source file for the static rules: the compiler-libs
    parsetree plus line-anchored [tmstatic: allow] escape comments and
    longident helpers shared by every rule. *)

type 'ast file = {
  path : string;  (** the subject string used in findings *)
  text : string;
  ast : 'ast;
  allows : allow list;
}

and allow = { a_line : int; a_rules : string list (* [] = every rule *) }

type t = Parsetree.structure file
(** An implementation ([.ml]). *)

type intf = Parsetree.signature file
(** An interface ([.mli]). *)

val load : subject:string -> string -> (t, string) result
(** Read and parse the implementation [file]; [subject] labels findings
    and parse errors. *)

val interface : subject:string -> string -> (intf, string) result
(** {!load} for an interface ([Parse.interface]). *)

val allows : _ file -> rule:string -> line:int -> bool
(** Is there a [tmstatic: allow] comment for [rule] on [line] or the
    line above it? An allow comment naming no rules allows every rule. *)

val line_of : Location.t -> int
(** 1-based start line of a location. *)

val lid_last : Longident.t -> string
(** The last component: [Stm_core.Chaos.fire] -> ["fire"]. *)

val lid_parent : Longident.t -> string option
(** The component immediately qualifying the last one:
    [Stm_core.Chaos.fire] -> [Some "Chaos"]; [Lident _] -> [None]. *)
