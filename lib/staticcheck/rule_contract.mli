(** seam-contract: both-direction cross-check of each core's sites
    against its [Stm.Algo.sites] announcement. *)

val rule : string

val check :
  vocab:string list ->
  contract:Seam.contract ->
  helpers:(string * string list) list ->
  facade:string ->
  (string * Source.t) list ->
  Tm_analysis.Finding.t list
(** [check ~vocab ~contract ~helpers ~facade cores] with [cores] a list
    of (Algo constructor, parsed core source), [helpers] the substrate
    functions' sites ({!Seam.helper_sites}) and [facade] the subject
    naming [stm.ml].  Error findings for unannounced sites (located at
    the core line), announced sites never reached and duplicate
    announcements (located at the table case). *)
