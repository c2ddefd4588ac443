(** Bounded state-space exploration of a (replayable) system.

    The explored systems are mutable, so the explorer works by {e replay}:
    a reachable state is identified by the action sequence that leads to
    it, and expanding a node re-executes that sequence on a fresh system.
    This costs O(depth) per expansion, which is irrelevant at the sizes we
    explore (Figure 15's automaton has 10 states), and asks of a system
    only [make] and [apply] — no copy.  The zoo's TMs can copy themselves
    ([Tm_impl.Tm_intf.S.copy], which the exhaustive model checker
    [Tm_sim.Sweep.Exhaustive] uses), but the explorer stays generic over
    any replayable system.

    Exploration is breadth-first and deduplicates on a user-supplied
    observable snapshot, so it terminates whenever the snapshot space is
    finite (even if the underlying state has unobserved components, as long
    as they do not affect future observable behaviour). *)

type ('state, 'action) t = {
  states : ('state * 'action list) list;
      (** each reachable snapshot with a shortest witness action sequence,
          in BFS discovery order *)
  transitions : ('state * 'action * 'state) list;
  complete : bool;  (** false when [max_states] stopped the exploration *)
}

val reachable :
  make:(unit -> 'i) ->
  snapshot:('i -> 'state) ->
  actions:('i -> 'action list) ->
  apply:('i -> 'action -> unit) ->
  ?max_states:int ->
  unit ->
  ('state, 'action) t
(** [reachable ~make ~snapshot ~actions ~apply ()] explores from
    [snapshot (make ())].  [actions] lists the enabled actions in the
    current state; [apply] executes one.  Default [max_states] is 10_000.
    Snapshots are compared with structural equality. *)

val check_invariant :
  ('state, 'action) t -> ('state -> bool) -> ('state * 'action list) option
(** The first reachable state violating the invariant, with its witness. *)

val to_dot :
  state_label:('state -> string) ->
  action_label:('action -> string) ->
  ('state, 'action) t ->
  string
(** A Graphviz rendering of the reachable transition graph; states are
    named s1, s2, ... in discovery order (so the Figure-15 exploration
    reproduces the paper's own diagram). *)
