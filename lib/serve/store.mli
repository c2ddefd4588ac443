(** A sharded transactional key-value table over [Stm] t-variables.

    Keys are dense ints in [0 .. keys-1], each one [int Stm.tvar] in a
    flat key-indexed table.  Stripe [s] owns every key [k] with
    [k mod stripes = s], only as the flat combiner's unit; t-variables
    are created stripe by stripe, so their ids (TL2's lock order) are
    those of the old per-stripe directories.  All operations run inside
    [Stm.atomically] under the selected core, so a multi-key request is
    one transaction.

    An optional {e journal} t-variable turns every mutating transaction
    into a conflict on one shared location: the serving path marks the
    journal with the number of mutating requests a commit applies, which
    (a) makes mutators conflict-universal — the property the chaos
    crash-holding-locks verdicts rely on — and (b) leaves the journal's
    final value equal to the number of admitted mutating requests, a
    deterministic quantity even under flat-combined batching. *)

type t

val create : ?stripes:int -> ?journal:bool -> keys:int -> unit -> t
(** [create ~keys ()] builds the table with all values 0.  [stripes]
    defaults to 64 and is clamped to [keys].  [journal] (default false)
    allocates the journal t-variable.  Must run with the serving core
    selected — the t-variables belong to the current algorithm.
    @raise Invalid_argument if [keys < 1]. *)

val stripes : t -> int
val stripe_of : t -> int -> int
(** The stripe owning a key: the combiner it batches through. *)

(** {2 Transactional operations}

    The [O_]-prefixed operations are the request alphabet; {!exec_op}
    runs one {e inside} an enclosing [Stm.atomically] body, so callers
    compose them freely into larger transactions. *)

type op =
  | O_get of int  (** read a key *)
  | O_put of int * int  (** key, value *)
  | O_add of int * int  (** key, delta — read-modify-write *)
  | O_cas of int * int * int  (** key, expected, desired *)

type result =
  | R_value of int  (** [O_get]: the value read *)
  | R_unit  (** [O_put], [O_add] *)
  | R_bool of bool  (** [O_cas]: whether it hit *)

val op_mutates : op -> bool
(** Whether the op writes (a missed [O_cas] still counts: it {e may}
    write, so admission and journal accounting treat it as a mutator). *)

val exec_op : t -> op -> result
(** Run one op inside the current transaction. *)

(** {2 The op buffer}

    A request held as data: the executors' form of a request.  Each op
    is four ints (tag, key and two arguments) in one array reused from
    request to request, beside the request's length, kind, admission
    cost and whether it mutates.  {!Workload.fill} writes a request
    into a buffer and {!run} executes it; neither allocates, so a
    served request allocates only what the core itself does for it
    (under TL2, its write-set entries: 3 words per first write to a
    t-variable).  The buffer also owns the generator its requests are
    drawn from.  {!op} reads an op back as an {!op} value. *)

type buffer

val buffer : unit -> buffer
(** An empty buffer (room for 32 ops; {!start} grows it). *)

val start : buffer -> length:int -> kind:int -> cost:int -> unit
(** Begin a request of [length] ops with the given kind index and
    admission cost; [mutates] is reset to false.  The ops are then set
    with the [set_*] functions below, each at an index below [length].
    @raise Invalid_argument if [length < 0]. *)

val set_get : buffer -> int -> int -> unit
(** [set_get b i k]: op [i] reads key [k]. *)

val set_put : buffer -> int -> int -> int -> unit
(** [set_put b i k v]: op [i] writes [v] to key [k]. *)

val set_add : buffer -> int -> int -> int -> unit
(** [set_add b i k d]: op [i] adds [d] to key [k]. *)

val set_cas : buffer -> int -> int -> expected:int -> desired:int -> unit
(** Op [i] is a compare-and-set on key [k].  Every setter but
    {!set_get} marks the request mutating, as {!op_mutates} does. *)

val length : buffer -> int
val kind : buffer -> int
val cost : buffer -> int
val mutates : buffer -> bool

val gen : buffer -> Tm_sim.Prng.t
(** The generator the buffer's requests are drawn from (reseeded in
    place for each request). *)

type tag = T_get | T_put | T_add | T_cas

val op_tag : buffer -> int -> tag
val op_key : buffer -> int -> int

val op_arg : buffer -> int -> int
(** The op's first argument: the value of a put, the delta of an add,
    the expected value of a cas. *)

val op : buffer -> int -> op
(** Op [i] as an {!op} value (allocates it). *)

val run : t -> buffer -> unit
(** Run the buffer's ops in order inside the current transaction,
    discarding their results.  Same op semantics as {!exec_op}: both
    go through one per-op code path. *)

val write_key : t -> int -> int -> unit
(** Raw in-transaction write, for the flat combiner's drain loop. *)

val journal_mark : t -> int -> unit
(** In-transaction: bump the journal by [n] requests.  No-op when the
    journal is disabled. *)

(** {2 Whole-transaction conveniences} *)

val get : t -> int -> int

val multi : t -> op list -> result list
(** All ops as one transaction (journal-marked once if any mutates). *)

val spec_op : int array -> op -> result
(** The sequential-map specification: apply the op to a plain array
    (index = key).  Differential oracle for {!exec_op}/{!multi} — a
    single-domain run must leave the store byte-equal to folding
    [spec_op] over the same admitted ops in execution order. *)

(** {2 Non-transactional inspection}

    For after the workers are joined — each read is the core's direct
    snapshot read of one key, outside any transaction, so a live dump
    is not a consistent cut. *)

val dump : t -> int array

val journal_value : t -> int
(** 0 when the journal is disabled. *)

val hash : int array -> int
(** A fingerprint of key-indexed values — a {!dump} or a {!spec_op}
    model — in key order (FNV-1a on 63-bit ints): equal arrays hash
    equal, and one changed value changes the hash. *)
