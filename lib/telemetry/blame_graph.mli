(** The bridge from [Stm.Obs] to the registry: a weighted
    who-aborted-whom digraph with per-edge cause breakdown and
    per-domain progress watermarks.

    One registered counter per (victim, aggressor, cause) cell —
    [tm_blame_events_total{victim,aggressor,cause}] — where either
    identity may be ["unknown"] (an unslotted domain); each cell has a
    unique writer domain ([Stolen] is written by the aggressor,
    everything else by the victim), so cells are unsharded and the emit
    path is one increment plus one clock tick.

    The watermark clock is the graph's own event clock: one tick per
    blame event or commit.  A slot's {!wait_age} — clock distance from
    its last commit — is the starvation signal: it grows without bound
    for a starved slot while peers keep generating events, and resets
    on every commit.  The registered gauges [tm_blame_clock],
    [tm_blame_last_commit] and [tm_blame_wait_age] read the clock and
    the watermarks at scrape time (the emit path never touches the
    registry).

    The graph accessors below count from the last {!mark}; the
    registered counters stay cumulative. *)

module Obs = Tm_stm.Stm.Obs

type t

val create : Registry.t -> domains:int -> t
(** Register the full (domains+1) x (domains+1) x causes cell matrix,
    per-slot commit counters and watermark gauges in the registry.
    @raise Invalid_argument if [domains < 1]. *)

val subscriber : t -> Obs.subscriber
(** Feeds [Conflict] sites into the cells and [Commit] sites into the
    watermarks; subscribe it with [Obs.subscribe]. *)

val mark : t -> unit
(** Count the graph from now on: edges, victim totals and
    {!classify} see only events after the mark (a run marks at the
    start of its observation window). *)

val domains : t -> int

val clock : t -> int
(** Current event-clock value (events + commits so far). *)

(** {2 Graph accessors}

    Identities are plan slots; [-1] is the unknown slot and is a valid
    argument everywhere a victim/aggressor is taken. *)

val edge : t -> victim:int -> aggressor:int -> Obs.cause -> int

val edge_total : t -> victim:int -> aggressor:int -> int
(** Sum over causes. *)

val victim_total : t -> int -> int
(** Total blame events with the given victim. *)

val edges : t -> (int * int * int) list
(** Non-zero edges as [(victim, aggressor, total)], ordered by
    (victim, aggressor) ascending with the unknown slot first. *)

val edge_causes : t -> victim:int -> aggressor:int -> (Obs.cause * int) list
(** Non-zero per-cause weights of one edge, in {!Obs.causes}
    order. *)

val cause_counts : t -> (Obs.cause * int) list
(** Global per-cause totals (zero counts included), in
    {!Obs.causes} order. *)

(** {2 Watermarks} *)

val commits : t -> int -> int
val last_commit : t -> int -> int

val wait_age : t -> int -> int
(** [clock t - last_commit t d], clamped at 0. *)

(** {2 Deterministic classification}

    Raw edge weights of a real multicore run are not reproducible run
    to run; the verdicts plus wide-margin structure are.  {!classify}
    reduces the graph to exactly that — the byte-comparable form the
    CI determinism gate compares and the analysis [blame] rule
    cross-checks against chaos verdicts:

    - evidence is verdict-first: crashed, parasitic and progressing
      domains get their verdict back (a progressing domain has no
      starvation to attribute, and its small-sample blame profile is
      the nondeterministic part);
    - only starving victims are attributed, and their signal is
      wide-margin by construction: a domain starving behind a stranded
      or held lock collects thousands of blame events per window of
      which the blocking slot owns ~100%, so the 90% dominator test
      separates it cleanly from anything symmetric;
    - a starving victim below {!min_events} events is quiet —
      starvation the seam did not witness (chaos-injected abort storms
      bypass the instrumented decision sites);
    - the shape covers the attributable starving victims only: one
      shared dominator is a star (the stranded-lock signature), mutual
      significant blame among starving victims is a cycle {e existence}
      (the livelock signature — membership is never reported), and no
      starving victims is no shape (the obstruction-free signature
      under crash-holding-locks: everybody steals past the corpse). *)

val min_events : int

type evidence =
  | E_crashed  (** verdict says crashed; blame not computed *)
  | E_parasitic  (** verdict says parasitic; blame not computed *)
  | E_progressing  (** verdict says progressing; nothing to attribute *)
  | E_starved_by of int  (** one aggressor holds >= 90% of the blame *)
  | E_contended  (** starving with no dominator (symmetric rivals) *)
  | E_quiet  (** starving with fewer than {!min_events} blame events *)

type shape =
  | Star of int  (** every attributable starving victim shares one dominator *)
  | Cycle  (** mutual significant blame among starving victims exists *)
  | No_shape

val evidence_label : evidence -> string
(** ["crashed"], ["parasitic"], ["progressing"], ["starved-by:N"],
    ["contended"], ["quiet"]. *)

val shape_label : shape -> string
(** ["star:N"], ["cycle"], ["none"]. *)

val classify :
  t ->
  classes:Tm_liveness.Process_class.cls array ->
  shape * evidence array
(** [classify t ~classes] (one Figure-2 class per domain, e.g. the
    chaos verdicts) reduces the graph to its stable shape and
    per-domain evidence.
    @raise Invalid_argument unless [classes] has one entry per
    domain. *)
