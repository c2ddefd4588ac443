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

# Restoring a saved prefix pops the trail back to the frame's mark,
# writing each process int's old value back.  Skip the pops: test_safety
# "monitor resumption" must FAIL.
row build-and-test trail-no-undo lib/safety/monitor.ml \
  's/while m.ntrail > mark do/while false \&\& m.ntrail > mark do/' \
  -- dune exec test/test_safety.exe -- test "monitor resumption"

# Put back the uniform scheduler's per-tick List.filter over all
# processes: the schedule is unchanged, but test_sim "runner words per
# step" (<= 10 words) must FAIL (measured 17.2; 4.3 without it).
row build-and-test per-tick-live-filter lib/sim/runner.ml \
  's/^  let rr = ref 0 in$/  let all_procs = List.init n succ in\n  let rr = ref 0 in/;s/^    | Uniform -> live.(Prng.int sched_prng !nlive)$/    | Uniform ->\n        let procs = List.filter (fun q -> not (crashed tick q)) all_procs in\n        List.nth procs (Prng.int sched_prng (List.length procs))/' \
  -- dune exec test/test_sim.exe -- test "pipeline allocation" 4

# An invocation at the model checker's last level needs only its
# history.  Copy and invoke a TM for it anyway: the preorder is
# unchanged, but test_sim "enumeration words per node" (<= 32 words)
# must FAIL (measured 41.2; 23.5 with the shortcut).
row build-and-test leaf-copy lib/sim/sweep.ml \
  's/if d = 1 then on_history/if false then on_history/' \
  -- dune exec test/test_sim.exe -- test "pipeline allocation" 1

# An untraced sweep run builds no history: Runner.metrics tallies its
# metrics as it goes.  Run it through Runner.run and keep the history
# in the result: the metrics are unchanged, but test_sim "untraced
# sweep retains no histories" (<= 4,000 live words) must FAIL
# (measured 135,645; 1,440 without it).
row build-and-test untraced-history lib/sim/sweep.ml \
  's/else { r_config = c; r_metrics = Runner.metrics c.tm c.spec; r_traced = None }/else let o = Runner.run c.tm c.spec in { r_config = c; r_metrics = o.Runner.metrics; r_traced = Some { t_history = o.Runner.history; t_trace = [] } }/' \
  -- dune exec test/test_sim.exe -- test "pipeline allocation" 7

# The runner reads the empirical fault/starvation window off the last
# max 1 (events / 4) events it tallied.  Read one event fewer: test_sim
# "runner metrics = four-pass reference", which holds the runner's
# metrics to a walk of its own history, must FAIL.
row build-and-test tally-window-off-by-one lib/sim/metrics.ml \
  's|~window:(max 1 (n / 4))|~window:(max 1 (n / 4) - 1)|' \
  -- dune exec test/test_sim.exe -- test metrics 13

# TL2 validates a t-variable read and then written at once only when
# its commit locks it: the word the lock replaced must be at the version
# the read saw.  Make that comparison false: test_stm "a stale
# read-then-write aborts" must FAIL (the commit overwrites the peer's
# value).
row build-and-test lock-skips-version lib/stm/stm_tl2.ml \
  's/version_of v <> seen/false/' \
  -- dune exec test/test_stm.exe -- test "sets as data" 18

# A cleared write set finds none of its cells: a slot's cell answers
# only while its epoch is the set's.  Ignore the epoch: the set still
# finds the last transaction's writes, and test_stm "Wset matches an
# association list across transactions" must FAIL.
row build-and-test index-ignores-epoch lib/stm/stm_core.ml \
  's/if w.epoch = s.epoch then w.at else -1/w.at/' \
  -- dune exec test/test_stm.exe -- test "sets as data" 20

# A mid-commit crash lands two polls into a multi-poll commit, past its
# lock phase (the mid_commit_depth of the TM's Tm_impl.Contract row).
# Land mvstm's right after its tryC instead: the crash then holds no
# lock and the runner sails on, so test_tm "mvstm / crash-mid-commit"
# must FAIL, and so must the bench paper-verdicts diff (Z1's mvstm
# crash-mid-commit reads true).
row build-and-test mvstm-mid-commit-depth lib/tm/contract.ml \
  's/v ~mid_commit_depth:2 "mvstm"/v "mvstm"/' \
  -- dune exec test/test_tm.exe -- test "solo-progress matrix" 50
row build-and-test mvstm-mid-commit-verdicts lib/tm/contract.ml \
  's/v ~mid_commit_depth:2 "mvstm"/v "mvstm"/' \
  -- dune build @bench/runtest

# Figure 15's automaton has no abort transition.  Answer a lone
# process's tryC with an abort: test_tm "figure 15 has no abort
# transition", which reads every poll edge's response from the state
# graph, must FAIL.
row build-and-test fgp-lone-abort lib/tm/fgp.ml \
  's/^            else deliver_commit t p))$/            else if t.cfg.nprocs = 1 then deliver_abort ~priority t p\n            else deliver_commit t p))/' \
  -- dune exec test/test_tm.exe -- test "fgp figures" 2

# Exhaustive.graph expands a child only when its key is new.  Expand
# every child: the walk becomes the schedule tree and never closes, so
# test_tm "figure 15 enumeration" must FAIL, and so must the bench
# paper-verdicts rule (bench F15 asserts its graph complete, so the
# bench stops before the diff).
row build-and-test graph-no-dedup lib/sim/sweep.ml \
  's/if not (Hashtbl.mem seen k) then begin/if true then begin/' \
  -- dune exec test/test_tm.exe -- test "fgp figures" 1
row build-and-test graph-no-dedup-verdicts lib/sim/sweep.ml \
  's/if not (Hashtbl.mem seen k) then begin/if true then begin/' \
  -- dune build @bench/runtest

# fgp-priority's abort also drops the aborted process from CP, so the
# next commit does not doom it.  Keep it in CP, as Fgp does: test_tm
# "only fgp-priority's abort leaves CP" must FAIL (p2's next read
# aborts under both variants).
row build-and-test fgp-priority-cp-drop lib/tm/fgp.ml \
  's/^  if priority then t.cp.(p) <- false;$/  if priority then ();/' \
  -- dune exec test/test_tm.exe -- test "fgp variants" 0

# Tm_intf.Make empties a process's mailbox exactly when its TM answers.
# Leave it full: every zoo TM then keeps a phantom pending invocation,
# and test_sim "whole zoo conforms" must FAIL.
row build-and-test mailbox-kept lib/tm/tm_intf.ml \
  's/^            Mailbox.clear m p;$//' \
  -- dune exec test/test_sim.exe -- test conformance 0

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

# Count a parasite as in effect once its op clock reaches its onset
# instead of when it turns: test_chaos "onset waits for the takeover"
# holds a transaction in flight past the onset, and the window's open
# condition must not hold while it is in flight, so it must FAIL.
row chaos parasite-onset --leg tl2 \
  --expect 'no onset while the transaction is in flight' chaos-onset-mutant.log \
  lib/chaos/runner.ml \
  's/| Plan.Parasitic _ -> Atomic.get ses.ses_turned.(d)/| Plan.Parasitic { from_op } -> ignore ses.ses_turned; Tel.Instrument.value ses.ses_ops.(d) >= from_op/' \
  -- sh -c 'dune exec test/test_chaos.exe -- test run 10 --color=never > chaos-onset-mutant.log 2>&1'

# Close the window at its open (K = 0 sites): test_chaos "a held domain
# is waited for" holds a healthy domain in its next past the open, and
# a window that does not wait for its sites reads it crashed, so it
# must FAIL.
row chaos window-at-open --leg tl2 \
  --expect 'the held domain progresses' chaos-window-mutant.log \
  lib/chaos/runner.ml \
  's/^let window_sites = Tel.Blame_graph.min_events$/let window_sites = 0/' \
  -- sh -c 'dune exec test/test_chaos.exe -- test run 13 --color=never > chaos-window-mutant.log 2>&1'

# Open the window without waiting for every live domain to start an
# attempt since the faults took effect: test_chaos "a commit is counted
# before the window opens" holds domain 2 between its commit and its
# count while the crash lands, so the window counts that commit and it
# must FAIL.
row chaos late-count --leg tl2 \
  --expect 'the held commit is not in the window' chaos-count-mutant.log \
  lib/chaos/runner.ml \
  's/|| Tel.Instrument.value ses.ses_attempts.(d) > started.(d)))/|| Tel.Instrument.value ses.ses_attempts.(d) >= started.(d)))/' \
  -- sh -c 'dune exec test/test_chaos.exe -- test run 14 --color=never > chaos-count-mutant.log 2>&1'

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

# ---- telemetry ----

# Drop the "- 1" from the shared upper-bound rule (Tm_sim.Hist), so each
# sub-bucketed bucket's bound reaches the first value of the next one:
# test_telemetry's property, run once per layout ("histograms" 3-5:
# sim, log2, hires; "bucket_of and bucket_upper agree"), must FAIL for
# every layout.  The log names the failing tests, so a build failure is
# not taken for a catch.
row telemetry upper-bound-off-by-one \
  --expect 'FAIL.*histograms *3 *sim layout' telemetry-hist-mutant.log \
  --expect 'FAIL.*histograms *4 *log2 layout' telemetry-hist-mutant.log \
  --expect 'FAIL.*histograms *5 *hires layout' telemetry-hist-mutant.log \
  lib/sim/hist.ml \
  's/((sub + 1) lsl (m - l.sub_bits)) - 1/(sub + 1) lsl (m - l.sub_bits)/' \
  -- sh -c 'dune exec test/test_telemetry.exe -- test histograms 3-5 --color=never > telemetry-hist-mutant.log 2>&1'

# A registered metric is a read of its owner's state.  Make the
# liveness gauge's correct read a constant 1: test_telemetry "class
# transitions" scrapes a domain whose counters froze, reads the
# stateset crashed and the correct gauge still 1, so it must FAIL.
row telemetry constant-correct-read \
  --expect 'FAIL.*liveness *0 *class transitions' telemetry-read-mutant.log \
  lib/telemetry/liveness_gauge.ml \
  's/(fun () -> correct_of_cls t.current.(d))/(fun () -> max 1 (correct_of_cls t.current.(d)))/' \
  -- sh -c 'dune exec test/test_telemetry.exe -- test liveness 0 --color=never > telemetry-read-mutant.log 2>&1'

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
# <= 1 word, measured 0.05) must FAIL.
row serve request-closure --leg tl2 lib/serve/server.ml \
  's/let execute x = Stm.atomically x.x_body/let execute x = Stm.atomically (fun () -> x.x_body ())/' \
  -- dune exec test/test_serve.exe -- test server 8

# Build the combiner's flush body per flush again: the closure costs 4
# words per combined put, so test_serve "served-request allocation"
# (write-heavy through the combiner <= 1 word, measured 0.05) must
# FAIL.
row serve flush-closure --leg tl2 lib/serve/server.ml \
  's/Stm.atomically c.fc_body/Stm.atomically (fun () -> c.fc_body ())/' \
  -- dune exec test/test_serve.exe -- test server 8

# A first write reuses its t-variable's write cell from the domain's
# table.  Allocate a fresh cell every time instead (5 words per first
# write): test_serve "served-request allocation" (long-txn <= 1 word,
# measured 0.21) must FAIL on the long-txn gate.
row serve fresh-write-cell --leg tl2 \
  --expect 'served long-txn request' serve-cell-mutant.log \
  lib/stm/stm_core.ml \
  's/| W w as e when w.tv.id = tv.id ->/| W w as e when false \&\& w.tv.id = tv.id ->/' \
  -- sh -c 'dune exec test/test_serve.exe -- test server 8 --color=never > serve-cell-mutant.log 2>&1'

# Register a read of 0 for each executor's batched-put tally: the
# outcome still counts the combined puts, so test_serve "final scrape
# agrees with the outcome" must FAIL on tm_serve_batched_total.
row serve tally-dropped --leg tl2 \
  --expect 'tm_serve_batched_total' serve-tally-mutant.log lib/serve/server.ml \
  's/^    (fun t -> t.t_batched);$/    (fun _ -> 0);/' \
  -- sh -c 'dune exec test/test_serve.exe -- test server 10 --color=never > serve-tally-mutant.log 2>&1'

# Time every closed-loop request, as before sampling: each kind then has
# one latency sample per admitted request, so test_serve "final scrape
# agrees with the outcome" (exactly (n + 15) / 16 samples per kind per
# domain) must FAIL on the sample count.
row serve unsampled-latency --leg tl2 \
  --expect 'latency samples' serve-sampling-mutant.log lib/serve/server.ml \
  's/t.t_by_kind.(kind) land 15 = 1/true/' \
  -- sh -c 'dune exec test/test_serve.exe -- test server 10 --color=never > serve-sampling-mutant.log 2>&1'

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
