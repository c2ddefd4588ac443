(** Events of the transactional-memory model (Section 2.2 of the paper).

    Processes communicate with a TM implementation by issuing {e invocation
    events} (reads and writes on t-variables, and commit requests [tryC]) and
    receiving {e response events} (read values, write acknowledgements, commit
    events [C] and abort events [A]).

    Following the paper, processes, t-variables and values are drawn from
    countable sets; we represent all three by non-negative integers.  Process
    identifiers are 1-based (the paper writes p1, p2, ...); t-variable
    identifiers and values are 0-based, and every t-variable initially holds
    the value [0] (as in all of the paper's figures). *)

type proc = int
(** A process identifier [pk], [k >= 1]. *)

type tvar = int
(** A t-variable identifier [x], [x >= 0]. *)

type value = int
(** A value [v] stored in a t-variable. *)

(** An invocation event of some process: the set [Inv_k] of the paper. *)
type invocation =
  | Read of tvar  (** [x.read_k] *)
  | Write of tvar * value  (** [x.write_k (v)] *)
  | Try_commit  (** [tryC_k] *)

(** A response event of some process: the set [Res_k] of the paper. *)
type response =
  | Value of value  (** [v_k]: the value returned by a read *)
  | Ok_written  (** [ok_k]: acknowledgement of a write *)
  | Committed  (** [C_k]: a commit event *)
  | Aborted  (** [A_k]: an abort event *)

(** An event: an invocation or a response, tagged by its process. *)
type t = Inv of proc * invocation | Res of proc * response

val proc : t -> proc
(** [proc e] is the process that issued or received [e]. *)

val is_invocation : t -> bool
val is_response : t -> bool

val is_commit : t -> bool
(** [is_commit e] holds iff [e] is a commit event [C_k] for some [k]. *)

val is_abort : t -> bool
(** [is_abort e] holds iff [e] is an abort event [A_k] for some [k]. *)

val is_try_commit : t -> bool
(** [is_try_commit e] holds iff [e] is an invocation [tryC_k] for some [k]. *)

val matches : invocation -> response -> bool
(** [matches inv res] holds iff [res] is a well-formed response to [inv]
    according to the alphabet [Sigma_k] of the paper: a read may return a
    value or [A]; a write may return [ok] or [A]; [tryC] may return [C] or
    [A]. *)

val tvar_of_invocation : invocation -> tvar option
(** The t-variable accessed by an invocation, if any ([None] for [tryC]). *)

val equal : t -> t -> bool
val equal_invocation : invocation -> invocation -> bool
val compare : t -> t -> int

val pp_invocation : Format.formatter -> invocation -> unit
val pp_response : Format.formatter -> response -> unit

val pp : Format.formatter -> t -> unit
(** Prints in the paper's notation, e.g. [x0.read_1], [1_2], [C_1], [A_2]. *)

val to_string : t -> string

(** {2 Shared response events} *)

type responses
(** The response events of a run, built once: [ok], [C] and [A] for
    every process in [\[0, nprocs\]], and reads of every value in
    [\[0, values)].  A run that answers many polls takes its events
    from here instead of allocating one per answer. *)

val responses : nprocs:int -> values:int -> responses

val response : responses -> proc -> response -> t
(** [response t p r] is [Res (p, r)]: the table's shared event when [p]
    and [r] are in its range, a fresh one otherwise. *)
