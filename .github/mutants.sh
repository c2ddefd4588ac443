# The CI mutant table, read by `falsify.sh --table JOB [LEG]`: one row
# per mutant, each a seeded edit that a named check must catch.
#
#   row JOB NAME [--leg GLOB]... [--status N] [--expect PATTERN FILE]...
#       FILE EDIT -- CHECK...
#
# JOB is the CI job that runs the row; --leg limits it to the matrix
# legs matching GLOB (the job passes its leg as algo or algo/scenario).
# FILE is seeded with the sed script EDIT and restored afterwards; it
# is a source file or an artifact an earlier step of the job wrote.
# CHECK must then fail (exit N with --status) and each PATTERN must be
# in its FILE.  Adding a mutant is adding a row.

# ---- build-and-test: the simulator, monitor and model checker ----

# When a history does not extend the monitor's current state, the
# monitor restores the longest saved prefix before stepping the rest.
# Skip that restore: test_safety "monitor resumption" must FAIL
# (resumed verdicts differ from fresh ones).
row build-and-test monitor-restore lib/safety/monitor.ml \
  's/if i <> r.at then restore r i;/if i <> r.at then ();/' \
  -- dune exec test/test_safety.exe -- test "monitor resumption"

# Put back the uniform scheduler's per-tick List.filter over all
# processes: the schedule is unchanged, but test_sim "runner words per
# step" (<= 10 words) must FAIL (measured 18.8).
row build-and-test per-tick-live-filter lib/sim/runner.ml \
  's/^  let rr = ref 0 in$/  let all_procs = List.init n succ in\n  let rr = ref 0 in/;s/^    | Uniform -> live.(Prng.int sched_prng !nlive)$/    | Uniform ->\n        let procs = List.filter (fun q -> not (crashed tick q)) all_procs in\n        List.nth procs (Prng.int sched_prng (List.length procs))/' \
  -- dune exec test/test_sim.exe -- test "pipeline allocation" 4

# An invocation at the model checker's last level needs only its
# history.  Copy and invoke a TM for it anyway: the preorder is
# unchanged, but test_sim "enumeration words per node" (<= 32 words)
# must FAIL (measured 42.9; 24.5 with the shortcut).
row build-and-test leaf-copy lib/sim/sweep.ml \
  's/if d = 1 then on_history/if false then on_history/' \
  -- dune exec test/test_sim.exe -- test "pipeline allocation" 1

# An untraced sweep drops each run's history once its metrics are
# taken.  Keep it in the result anyway: the metrics are unchanged, but
# test_sim "untraced sweep retains no histories" (<= 4,000 live words)
# must FAIL (measured 135,597; 1,392 without it).
row build-and-test untraced-history lib/sim/sweep.ml \
  's/r_traced = None/r_traced = Some { t_history = outcome.Runner.history; t_trace = [] }/' \
  -- dune exec test/test_sim.exe -- test "pipeline allocation" 7

# TL2 validates a t-variable read and then written at once only when
# its commit locks it: the word the lock replaced must be at the version
# the read saw.  Make that comparison false: test_stm "a stale
# read-then-write aborts" must FAIL (the commit overwrites the peer's
# value).
row build-and-test lock-skips-version lib/stm/stm_tl2.ml \
  's/version_of v <> seen/false/' \
  -- dune exec test/test_stm.exe -- test "sets as data" 18

# ---- analyze ----

# Drop the first response from a dumped history: the analyzer must flag
# wf-alternation and exit 1.
row analyze dropped-response \
  --status 1 --expect '"rule":"wf-alternation"' findings-seeded.json \
  clean-history.txt '0,/^res /{/^res /d}' \
  -- dune exec bin/tmlive.exe -- analyze --history clean-history.txt \
  --format json -o findings-seeded.json

# ---- static: tmlive static must exit 1 with a RULE finding whose
# document also holds PATTERN.  The prebuilt binary reads the seeded
# sources at run time, so no row rebuilds. ----

static() { # NAME RULE PATTERN FILE EDIT
  row static "$1" --status 1 \
    --expect "\"rule\":\"$2\"" "findings-$1-seeded.json" \
    --expect "$3" "findings-$1-seeded.json" "$4" "$5" \
    -- ./_build/default/bin/tmlive.exe static --fail-on warning \
    --format json -o "findings-$1-seeded.json"
}
# Drop the armed guard in front of DSTM's Read site.
static guard seam-guard stm_dstm.ml lib/stm/stm_dstm.ml \
  's/if Atomic.get Obs.armed then Obs.fire Obs.Read;/Obs.fire Obs.Read;/'
# Drop Lock_busy from tl2's announcement: an unannounced site.
static contract seam-contract stm_tl2.ml lib/stm/stm.ml \
  '/Obs.Conflict Obs.Lock_busy;/d'
# Announce a Stolen conflict the global-lock core never emits.
static missing seam-contract 'no emission site' lib/stm/stm.ml \
  '/| Global_lock ->/,/\]/s/Obs.Conflict Obs.Wait_budget;/Obs.Conflict Obs.Wait_budget; Obs.Conflict Obs.Stolen;/'
# Print inside an atomically body: not rollbackable.
static purity txn-purity txn_counter.ml lib/stm/txn_counter.ml \
  's/Stm.atomically (fun () -> Stm.write t (Stm.read t + k))/Stm.atomically (fun () -> print_endline "x"; Stm.write t (Stm.read t + k))/'
# Subscribe to the seam with no teardown.
static leak armed-leak test_stm.ml test/test_stm.ml \
  '$a let _seeded_leak () = Stm.Obs.subscribe (fun _ _ _ -> Stm.Obs.Proceed)'
# An export nothing names; never compiled, only read.
static unused exported-unused seeded_unused lib/trace/ring.mli \
  '$a val seeded_unused : int'

# ---- chaos: the leg is the algorithm ----

# Rewrite the crashed domain's verdict to progressing: the chaos-class
# rule must flag the disagreement and exit 1 (domain 0 classifies
# crashed under every algorithm).
row chaos falsified-verdict \
  --status 1 --expect '"rule":"chaos-class"' findings-chaos-seeded.json \
  chaos-crash.json 's/"crashed"/"progressing"/g' \
  -- dune exec bin/tmlive.exe -- analyze --trace chaos-crash.json \
  --format json -o findings-chaos-seeded.json

# Count a parasite as landed once its op clock reaches its onset
# instead of when it enters its spin: test_chaos "onset waits for the
# takeover" holds a transaction in flight past the onset, and the onset
# wait must not report it landed, so it must FAIL.
row chaos parasite-onset --leg tl2 \
  --expect 'no onset while the transaction is in flight' chaos-onset-mutant.log \
  lib/chaos/runner.ml \
  's/| Plan.Parasitic _ -> Atomic.get ses.ses_taken_over.(d)/| Plan.Parasitic { from_op } -> ignore ses.ses_taken_over; Tel.Instrument.value ses.ses_ops.(d) >= from_op/' \
  -- sh -c 'dune exec test/test_chaos.exe -- test run 10 --color=never > chaos-onset-mutant.log 2>&1'

# ---- blame: the leg is algo/scenario ----

# Lock TL2's vlock word without the holder's slot bits: a busy lock then
# names nobody, and test_stm "owner comes from the vlock" must FAIL.
row blame vlock-holder --leg tl2/crash-holding-locks lib/stm/stm_tl2.ml \
  's/v land lnot owner_mask lor stamp lor 1/v land lnot owner_mask lor (stamp land 0) lor 1/' \
  -- dune exec test/test_stm.exe -- test "observation seam" 7

# Rewrite the starving domains' evidence to progressing: the blame rule
# must flag every doctored lane and exit 1.  Only the cells whose shape
# is star:0 attribute anything (starved-by:0 evidence) to falsify.
row blame falsified-evidence \
  --leg tl2/crash-holding-locks --leg norec/crash-holding-locks \
  --leg 'global-lock/*' \
  --status 1 --expect '"rule":"blame"' findings-blame-seeded.json \
  blame-trace.json 's/starved-by:0/progressing/g' \
  -- dune exec bin/tmlive.exe -- analyze --trace blame-trace.json \
  --format json -o findings-blame-seeded.json

# ---- serve: the leg is the algorithm; source mutants run on tl2 ----

# Make the one per-op code path write a hitting cas's expected value
# instead of its desired one: test_serve "sequential-spec conformance"
# compares the executor's final store with the sequential-map spec and
# must FAIL.
row serve cas-writes-expected --leg tl2 lib/serve/store.ml \
  's/Stm.write tv y;/Stm.write tv (ignore y; x);/' \
  -- dune exec test/test_serve.exe -- test server 6

# Build each guide entry from its bucket's upper edge (i + 1) / m: a
# draw then skips the ranks whose cumulative mass falls inside its
# bucket, so test_serve "sample = inversion" (Zipf.sample_u against a
# binary search over the cumulative masses) must FAIL.
row serve zipf-upper-edge --leg tl2 \
  --expect 'binary search' serve-zipf-mutant.log lib/serve/zipf.ml \
  's/float_of_int i \/. float_of_int m/float_of_int (i + 1) \/. float_of_int m/' \
  -- sh -c 'dune exec test/test_serve.exe -- test zipf 4 --color=never > serve-zipf-mutant.log 2>&1'

# Build the executor's transaction body per request again: the closure
# costs 4 words, so test_serve "served-request allocation" (read-mostly
# <= 1 word, measured 0.39) must FAIL.
row serve request-closure --leg tl2 lib/serve/server.ml \
  's/let execute x = Stm.atomically x.x_body/let execute x = Stm.atomically (fun () -> x.x_body ())/' \
  -- dune exec test/test_serve.exe -- test server 8

# Build the combiner's flush body per flush again: the closure costs 4
# words per combined put, so test_serve "served-request allocation"
# (write-heavy through the combiner <= 3 words, measured 2.10) must
# FAIL.
row serve flush-closure --leg tl2 lib/serve/server.ml \
  's/Stm.atomically c.fc_body/Stm.atomically (fun () -> c.fc_body ())/' \
  -- dune exec test/test_serve.exe -- test server 8

# Publish each executor's batched-put tally as 0: the outcome still
# counts the combined puts, so test_serve "final scrape agrees with the
# outcome" must FAIL on tm_serve_batched_total.
row serve tally-dropped --leg tl2 \
  --expect 'tm_serve_batched_total' serve-tally-mutant.log lib/serve/server.ml \
  's/Tel.Instrument.add batched.(d) t.t_batched/Tel.Instrument.add batched.(d) 0/' \
  -- sh -c 'dune exec test/test_serve.exe -- test server 10 --color=never > serve-tally-mutant.log 2>&1'

# Put each domain's op counter into the serving chaos verdict document:
# test_serve "crash-holding-locks tl2" runs the plan twice and compares
# the two documents byte for byte, so "chaos json stable" must FAIL.
row serve measured-counter --leg tl2 \
  --expect 'FAIL chaos json stable' serve-chaos-mutant.log lib/serve/server.ml \
  's/\\"crashed\\":%b}"/\\"crashed\\":%b,\\"ops\\":%d}"/; s/(Runner.report_ok r) r.rep_crashed))/(Runner.report_ok r) r.rep_crashed r.rep_last.Runner.ops))/' \
  -- sh -c 'dune exec test/test_serve.exe -- test chaos-serve 0 --color=never > serve-chaos-mutant.log 2>&1'

# ---- loadcurve ----

# Perturb the pure nanosecond scale by the wall clock's sub-second phase
# (staying within 1-2x nominal so the model does not degenerate): the
# arrival schedule now depends on when the run happens, so two runs of
# the canonical curve a second apart must differ.  Guards against the
# arrival clock silently growing a wall-clock dependency (and against
# the cmp gates going vacuous).  The log holds cmp's report, so a build
# failure is not taken for a catch.
row loadcurve wall-clock-arrival \
  --expect 'differ' loadcurve-mutant.log lib/serve/arrival.ml \
  's/let ns_per_s = 1e9/let ns_per_s = 1e9 +. Float.rem (Unix.gettimeofday () *. 1e9) 1e9/' \
  -- sh -c 'rm -f loadcurve-mutant.log; set -e
    for i in 1 2; do
      sleep 1
      dune exec bin/tmlive.exe -- loadcurve --profile mixed --clients 4000 \
        --ops 2 --keys 64 --seed 42 --domains 1 --format json \
        > loadcurve-broken-$i.json 2> /dev/null
    done
    cmp loadcurve-broken-1.json loadcurve-broken-2.json > loadcurve-mutant.log'
