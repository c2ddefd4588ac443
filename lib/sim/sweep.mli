open Tm_history

(** The sweep engine: run a grid of (TM × fault pattern × seed)
    configurations — sequentially or sharded across a {!Pool} of domains —
    and collect a {!Metrics.t} per run.

    Determinism is the design constraint: every configuration carries its
    own seed, {!Runner.run} derives all of a run's randomness from that
    seed via its own splittable PRNG stream, and results are merged back
    in the canonical grid order (TM-major, then pattern, then seed).  A
    parallel sweep is therefore bit-for-bit equal to a sequential one —
    {!to_json} on both yields identical bytes — which the differential
    test suite asserts. *)

type config = {
  tm : Tm_impl.Registry.entry;
  pattern : string;  (** fault-pattern name, e.g. ["healthy"], ["crash"] *)
  seed : int;
  spec : Runner.spec;
}

val label : config -> string
(** ["tl2/crash/seed=3"]. *)

val fault_patterns :
  ?nprocs:int ->
  ?ntvars:int ->
  ?steps:int ->
  ?sched:Runner.sched ->
  unit ->
  (string * (seed:int -> Runner.spec)) list
(** The standard fault grid (defaults: 3 processes, 4 t-variables, 1000
    steps, uniform scheduling):
    - ["healthy"]: no faults;
    - ["crash"]: process 1 crashes after its first write;
    - ["parasite"]: process 1 turns parasitic at a tenth of the run;
    - ["mixed"]: process 1 crashes mid-run, process 2 turns parasitic. *)

val grid :
  ?tms:Tm_impl.Registry.entry list ->
  ?patterns:(string * (seed:int -> Runner.spec)) list ->
  seeds:int list ->
  unit ->
  config list
(** The cross product in canonical order (TM-major, then pattern, then
    seed).  Defaults: every registered TM, {!fault_patterns} defaults. *)

type traced = {
  t_history : History.t;
  t_trace : Tm_trace.Trace_event.t list;
      (** the run's deterministic step-clock trace *)
}
(** What a traced run keeps besides its metrics. *)

type result = {
  r_config : config;
  r_metrics : Metrics.t;
  r_traced : traced option;
      (** [Some] exactly when the sweep ran with [~trace:true] *)
}

val run : ?pool:Pool.t -> ?trace:bool -> config list -> result list
(** Execute every configuration and return results in the input order.
    Without a pool (or with a 1-job pool) the sweep runs sequentially in
    the caller; either way the results are identical.

    An untraced result holds only its configuration and metrics: each
    run is a {!Runner.metrics}, which tallies the metrics as it goes and
    builds no history.  With [~trace:true] each result also keeps its run's
    history and deterministic step-clock trace in [r_traced]; those, like
    the metrics, are identical whether or not a pool is used, and they
    take memory in proportion to the whole grid. *)

val by_tm : result list -> (string * Metrics.t) list
(** Metrics aggregated per TM (merged over patterns and seeds), in order
    of first appearance. *)

val to_json : result list -> string
(** The sweep's metrics document:
    [{"runs":[{"tm","pattern","seed","metrics"}...],
      "by_tm":[{"tm","metrics"}...]}] — deterministic bytes, no
    wall-clock content. *)

val pp_table : Format.formatter -> result list -> unit
(** One line per run: label, commits, aborts by cause, defers, mean
    commit latency. *)

(** Exhaustive exploration of a TM: the one engine behind the bounded
    model checker ({!run}, {!screen}) and the reachable-state graphs
    ({!graph}, Figure 15).

    Both walks drive a TM under the same menu: at each step each process
    either polls its pending invocation or, with none pending, issues any
    invocation from the given list.

    {2 Schedules}

    [run] enumerates {e every} interleaving of up to [depth] scheduler
    actions and hands each reached history to the callback.  A poll can
    advance a TM's internal state without emitting an event (multi-poll
    commits), so a node is its TM state, not its history.  The
    enumeration is {e blit-and-extend}: each child node
    is its parent's TM advanced by one action, and its history is the
    parent's extended by the event that action produced.  [run] creates
    one TM per tree level up front, and a child moves its parent's state
    into its level's TM ({!Tm_impl.Tm_intf.S.blit}) only where a later
    sibling still needs the parent:
    - an invocation at the last level takes no blit and no TM step: its
      TM is never polled, so only its history is built;
    - the last child (the last enabled action of process [nprocs]) acts
      on the parent's instance itself;
    - every other child blits the parent into the TM of the level below
      and takes one TM step there.

    A node therefore costs at most one blit and one TM step — O(1) in
    the depth, and no TM allocation beyond the [depth + 1] instances —
    and the tree has ~[(nprocs * |invocations|)^depth] nodes.

    Combined with the linear-time {!Tm_safety.Monitor} this gives a small
    bounded model checker, {!screen}: [run] over all schedules, monitor
    each history, fall back to the exact checker on the rare
    [No_witness]. *)
module Exhaustive : sig
  type action = Invoke of Event.proc * Event.invocation | Poll of Event.proc

  val run :
    Tm_impl.Registry.entry ->
    nprocs:int ->
    ntvars:int ->
    invocations:Event.invocation list ->
    depth:int ->
    on_history:(History.t -> (unit -> action list) -> unit) ->
    unit
  (** [on_history] is called on every node (including internal ones), in
      depth-first preorder, with the recorded history and a function that
      builds the action sequence that produced it (O(depth) words per
      call; most callers never need it).  That function reads the
      enumeration's current path, so it is valid only during the callback
      it was passed to.  Children are visited in process order, and a
      process without a pending invocation in the order of
      [invocations].

      @raise Invalid_argument if [depth > 0], [nprocs > 0] and an
      invocation names a t-variable outside [0 .. ntvars - 1]. *)

  type screen = {
    checked : int;  (** histories visited *)
    fallbacks : int;
        (** of those, the ones the monitor found no witness for *)
    non_opaque : History.t list;
        (** of those, the ones the exact checker rejects, in depth-first
            preorder *)
  }

  val screen :
    ?ntvars:int ->
    Tm_impl.Registry.entry ->
    depth:int ->
    screen
  (** Theorem 3's exhaustive opacity check: {!run} two processes over
      every schedule of [depth] actions and screen each history with the
      linear-time {!Tm_safety.Monitor}, falling back to the exact
      {!Tm_safety.Opacity.is_opaque} where the monitor finds no witness.
      Each process's menu reads every t-variable, writes 1 to every
      t-variable, then [tryC]s, over [ntvars] t-variables (default 1). *)

  val count_nodes :
    Tm_impl.Registry.entry ->
    nprocs:int ->
    ntvars:int ->
    invocations:Event.invocation list ->
    depth:int ->
    int

  (** {2 Reachable states}

      [graph] walks the same menu breadth-first, a child being a
      {!Tm_impl.Tm_intf.S.copy} of its parent advanced by one action, and
      expands one TM per key: the key must determine the TM's future. *)

  type 'k graph = {
    states : ('k * action list) list;
        (** each reachable key with a shortest action list reaching it,
            in discovery order *)
    edges : ('k * action * Event.response option * 'k) list;
        (** [(k, a, r, k')]: action [a] from [k]'s representative answers
            [r] (always [None] for an invocation) and reaches [k'], in
            expansion order *)
    complete : bool;
        (** no new key at distance [depth]: all reachable keys, expanded *)
  }

  val graph :
    (module Tm_impl.Tm_intf.S with type t = 'a) ->
    key:('a -> 'k) ->
    nprocs:int ->
    ntvars:int ->
    invocations:Event.invocation list ->
    depth:int ->
    'k graph
  (** Keys are compared with structural equality.  A key first reached at
      distance [depth] is listed but not expanded.  Each node's children
      are in {!run}'s order.

      @raise Invalid_argument as {!run} does. *)

  val to_dot : state_label:('k -> string) -> 'k graph -> string
  (** A Graphviz rendering of the graph: keys are named s1, s2, ... in
      discovery order (so the Figure-15 exploration reproduces the paper's
      own diagram). *)

  val fig15 : unit -> Tm_impl.Fgp.state graph
  (** Figure 15: the graph of fgp with one process on one binary
      t-variable, keyed by {!Tm_impl.Fgp.state}, under the menu read
      [x0], write 0 or 1 to [x0], [tryC].  Its layers close at depth 5
      ([complete]) with the paper's ten states s1–s10 in its order. *)
end
