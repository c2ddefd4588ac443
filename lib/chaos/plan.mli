(** Seeded fault plans for the multicore [Stm] runtime.

    A plan assigns one {!fault} to each domain of a run, drawn from a
    named {!scenario} and a {!Tm_sim.Prng} seed: the same
    (scenario, seed, domains) triple always yields the same plan, the
    same rendered schedule and the same fault trace events, byte for
    byte.  Fault instants are expressed on each domain's {e operation
    clock} — the count of [Stm.Obs] fault sites reached on that
    domain — which is the only deterministic clock a real multicore run
    has.

    The plan also records the {e expected} Figure-2 class of every
    domain, so a run is an executable claim: crash-holding-locks must
    leave the crashed domain's conflicting peers starving, while a
    parasitic-only mix must leave every peer progressing. *)

type fault =
  | Healthy
  | Crash of { at_op : int; holding_locks : bool }
      (** stop dead at the first eligible fault site past
          [at_op]: at [Publish] (write-set vlocks held) when
          [holding_locks], at [Read] (nothing held) otherwise *)
  | Parasitic of { from_op : int }
      (** from [from_op] on, loop forever inside one transaction body
          without ever invoking [tryC] *)
  | Stall of { period : int; spins : int }
      (** every [period] operations, spin for [spins] [cpu_relax]es *)
  | Abort_storm of { from_op : int; until_op : int }
      (** transient: force an abort at every read in
          [\[from_op, until_op)] *)

type t = private {
  scenario : string;
  seed : int;
  domains : int;
  algo : Tm_stm.Stm.Algo.t;
      (** which STM core the run drives — the expectations below are a
          function of it *)
  faults : fault array;  (** one per domain, index = domain id *)
  expected : Tm_liveness.Process_class.cls array;  (** one per domain *)
}

val scenarios : string list
(** ["healthy"; "crash-holding-locks"; "crash-clean"; "parasitic-only";
    "stall"; "abort-storm"; "mixed"]. *)

val scenario_doc : string -> string option
(** One-line description of a scenario, for [--list] output. *)

val make :
  ?algo:Tm_stm.Stm.Algo.t ->
  scenario:string ->
  seed:int ->
  domains:int ->
  unit ->
  (t, string) result
(** [make ~scenario ~seed ~domains ()] derives the plan.  Errors on an
    unknown scenario, [domains < 2], or [domains < 3] for ["mixed"].
    Fault parameters are drawn from per-domain generators split off
    [Prng.create seed], so the plan is a pure function of its inputs.

    [algo] (default [Tl2]) selects the STM core and with it the
    expected Figure-2 class of every domain — the same fault separates
    the algorithms: a crash holding commit-time ownership starves the
    peers of every lock-based core but leaves the obstruction-free
    DSTM core's peers progressing (they steal the abandoned
    ownerships); a clean crash or a parasitic turn is harmless to every
    core except the global-lock serializer, whose peers starve behind
    the stranded or occupied lock. *)

val fault_label : fault -> string
(** ["healthy"], ["crash@op=93+locks"], ["parasitic@op=41"],
    ["stall(period=11,spins=101)"], ["abort-storm[128,412)"]. *)

val fault_instant : fault -> int
(** Where the fault reaches its steady state on the faulty domain's op
    clock: [0] for [Healthy], the crash or parasitic onset, a stall's
    first [period], the end of an abort storm. *)

val horizon : t -> int
(** One past the largest scheduled fault instant — the logical timestamp
    verdict events are stamped with, so they sort after every fault. *)

val trace_events : t -> Tm_trace.Trace_event.t list
(** The planned fault schedule as [Fault]-category instants (one per
    faulty domain, [tid] = domain, [ts] = the scheduled operation
    index).  A pure function of the plan: byte-identical Chrome JSON for
    equal plans, whatever really happens at run time. *)

val pp : Format.formatter -> t -> unit
(** The schedule as stable text, one line per domain
    ([domain d: <fault> expect <class>]) — the byte-comparison form the
    determinism tests use. *)
