(** The machine-read seam contract: the [Obs] site vocabulary parsed
    from [stm_core.ml], the per-algorithm announcement table and core
    dispatch parsed from [stm.ml], and the site scan the contract rule
    cross-checks them against.  A site is named by its constructor, a
    conflict by its cause. *)

type announcement = {
  an_algo : string;  (** [Algo.t] constructor, e.g. ["Global_lock"] *)
  an_sites : string list;  (** in announcement order *)
  an_line : int;  (** line of the matching table case in [stm.ml] *)
}

type contract = {
  c_algos : string list;
  c_core_files : (string * string) list;
      (** algo constructor -> core module name, e.g. ["Stm_tl2"] *)
  c_announced : announcement list;
}

val announced : contract -> algo:string -> announcement option

val vocab_of_core : Source.t -> (string list, string) result
(** The site names: the [Obs.site] constructors but [Conflict], then
    the [Obs.cause] constructors. *)

val contract_of_facade : Source.t -> (contract, string) result
(** Parse [Algo.t], the [Algo.sites] table and [core_of] out of
    [stm.ml].  Or-patterns announce for every named algorithm. *)

type site = { s_name : string; s_line : int }

val sites :
  ?helpers:(string * string list) list -> string list -> Source.t -> site list
(** Every vocabulary constructor qualified by [Obs] in expression
    position, in source order, plus the sites of each [helpers]
    function called. *)

val helper_sites : string list -> Source.t -> (string * string list) list
(** The sites each top-level function of a file reaches (the
    substrate's shared helpers, e.g. [write_back]). *)
