(** The Section-3.2.3 solo-progress check, defined once: the matrix that
    [Tm_impl.Contract] states, measured.

    Two processes share one t-variable for 4,000 steps at seed 1; p1
    suffers a fault and p2, the solo runner, keeps retrying transactions.
    The runner {e progresses} when it commits at least 10 times.  A
    healthy p1 runs under the uniform scheduler, because round-robin
    lockstep on one hot t-variable is itself an adversarial schedule
    under which a global-progress TM may legitimately starve one process
    (that is Theorem 1, not a fault); a faulty p1 runs round-robin, so
    its fault lands at a reproducible point. *)

val run : Tm_impl.Registry.entry -> Runner.fate -> Runner.outcome
(** The solo run with p1's fate. *)

val measure : Tm_impl.Registry.entry -> Tm_impl.Contract.row
(** Whether the runner progresses beside a healthy p1, one crashed after
    its first write, one crashed inside its commit, and one parasitic
    from step 10.  The mid-commit crash lands on the commit poll the
    TM's {!Tm_impl.Contract.t.mid_commit_depth} names (0, right after
    the [tryC] invocation, for a TM without a contract row). *)

type windows = {
  stalls : int;  (** crash points after which the runner never progresses *)
  runner_commits : int list;  (** the runner's commits, per crash point *)
}

val crash_windows : ?samples:int -> Tm_impl.Registry.entry -> windows
(** The random-crash vulnerability window: the solo run, round-robin,
    on one hot t-variable that every transaction reads and then
    increments three times, with p1 crashed at step [20 + (17 k mod
    300)] in sample [k] (also the run's seed), for [k] = 1 .. [samples]
    (default 40).  A crash anywhere between the first write and the
    commit response strands encounter-time locks, while commit-time
    locking is vulnerable only inside its commit procedure. *)
