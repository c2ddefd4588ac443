(** Rate-ladder load curves: offered vs achieved throughput, shed
    fraction and queueing/sojourn tails per rung.

    {2 Determinism discipline}

    The {e canonical} curve ({!run}) is a virtual-time model — a single
    server draining a FIFO queue at {!default_quantum_ns} nanoseconds
    per {!Workload.cost} unit, fed by the deterministic {!Arrival}
    schedule in global-index order.  It is a pure integer computation of
    (profile, seed, clients, ops, keys, queue_cap, quantum, arrival
    kind, ladder): no wall clock and {e no domain count}, so the
    canonical JSON ({!to_json}) is byte-identical across runs and across
    every [--domains] choice — the CI gate [cmp]s exactly that.

    The {e measured} points ({!measure}) run the real multicore server
    under the same arrival clock: wall-clock achieved throughput and the
    open/closed p99 from the coordinated-omission-free recorder.
    Informational only, never part of a canonical artifact. *)

type pcts = { q50 : int; q90 : int; q99 : int; q999 : int; q9999 : int }
(** Hires-histogram percentiles, nanoseconds of virtual time. *)

type point = {
  p_rate : float;  (** offered rate, req/s *)
  p_offered : int;  (** requests scheduled ([clients * ops]) *)
  p_admitted : int;
  p_shed : int;  (** arrivals over [queue_cap * quantum] ns of backlog *)
  p_achieved : float;  (** admitted per second of virtual makespan *)
  p_queueing : pcts;  (** arrival to service start *)
  p_service : pcts;
  p_sojourn : pcts;  (** arrival to completion *)
}

type curve = {
  v_kind : Arrival.kind;
  v_profile : Workload.profile;
  v_seed : int;
  v_clients : int;
  v_ops : int;
  v_keys : int;
  v_queue_cap : int;
  v_quantum : int;
  v_points : point list;  (** ladder order *)
}

val default_quantum_ns : int
(** 1000: one {!Workload.cost} unit is 1us of virtual service time, so
    the default server drains about 10^6/avg-cost requests per second. *)

val run :
  ?quantum_ns:int ->
  ?on_sample:(Tm_telemetry.Registry.snapshot -> unit) ->
  kind:Arrival.kind ->
  ladder:float list ->
  Server.config ->
  curve
(** Sweep the ladder (one virtual-queue pass per rate).  Only the
    config's profile, seed, clients, ops, keys and queue_cap are read —
    domains, algo and batching do not exist in the model.  [on_sample]
    receives one scrape per rung ([ts] = rung index, fresh registry:
    [tm_loadcurve_{admitted,shed}_total] counters and
    [tm_loadcurve_{queueing,service,sojourn}_ns] hires histograms), all
    deterministic, so a JSONL time series of the sweep is canonical too.
    @raise Invalid_argument on an empty ladder, a non-positive rate or
    [quantum_ns < 1]. *)

val shed_fraction : point -> float

val knee : (float * float) list -> float
(** [knee xy] over [(offered, achieved)] pairs: the highest offered rate
    still achieving at least 0.85 of itself, [0.0]
    if none does. *)

val curve_xy : curve -> (float * float) list
(** The curve's [(offered, achieved)] pairs, for {!knee}. *)

val to_json : curve -> string
(** The canonical loadcurve document: configuration echo (no domains
    field), the knee, then one rung object per ladder entry with
    offered/admitted/shed counts, shed fraction, achieved throughput and
    p50/p90/p99/p99.9/p99.99 for queueing, service and sojourn.
    Byte-deterministic. *)

val pp_curve : Format.formatter -> curve -> unit
(** Human table: one line per rung plus the knee. *)

(** {2 Measured points (informational)} *)

type mpoint = {
  m_rate : float;
  m_wall : float;
  m_admitted : int;
  m_shed : int;
  m_achieved : float;  (** admitted per wall-clock second *)
  m_open_p99 : int;  (** censored sojourn p99, ns *)
  m_closed_p99 : int;  (** completed-only sojourn p99, ns *)
}

val measure :
  ?kind:Arrival.kind -> ladder:float list -> Server.config -> mpoint list
(** Run the real server once per rung with the rung's arrival clock
    ([kind] defaults to {!Arrival.Poisson}); wall-clock results. *)

val measure_xy : mpoint list -> (float * float) list
val pp_mpoint : Format.formatter -> mpoint -> unit
