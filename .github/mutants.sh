# The mutant table, read by `falsify.sh --table` (run every row) and
# `falsify.sh --lint` (tier-1): one row per mutant, each a seeded edit
# that a named check must fail on, with a failure the row names.
#
#   row NAME [--setup CMD] [--status N] [--case TITLE]... [--expect PATTERN]...
#       FILE EDIT -- CHECK...
#
# CMD runs (sh -c) before the seed: it builds FILE when FILE is an
# artifact, in $WORK (a temporary directory), or a binary the check
# reuses.  FILE is seeded with the sed script EDIT and restored
# afterwards.  CHECK must then fail, exiting N with --status; its output
# must hold a [FAIL] line carrying each TITLE (CHECK is then
# `dune exec EXE -- test GROUP [N | N-M]`) and a match for each grep
# PATTERN.  Adding a mutant is adding a row.

# ---- the simulator, monitor and model checker ----

# When a history does not extend the monitor's current state, the
# monitor restores the longest saved prefix before stepping the rest.
# Skip that restore: resumed verdicts differ from fresh ones.
row monitor-restore --case "resumption is invisible" lib/safety/monitor.ml \
  's/if i <> r.at then restore r i;/if i <> r.at then ();/' \
  -- dune exec test/test_safety.exe -- test "monitor resumption"

# Restoring a saved prefix pops the trail back to the frame's mark,
# writing each process int's old value back.  Skip the pops.
row trail-no-undo --case "resumption is invisible" lib/safety/monitor.ml \
  's/while m.ntrail > mark do/while false \&\& m.ntrail > mark do/' \
  -- dune exec test/test_safety.exe -- test "monitor resumption"

# Each saved frame keeps the mask of the processes whose live
# transaction fails, computed from its parent's mask and one event: an
# invocation or a write's ok leaves a clear bit clear.  Take that
# shortcut on every event: a read that leaves an accepted prefix's
# transaction with no consistent snapshot point still reads accepted.
row verdict-diff-any-event --case "resumption is invisible" \
  lib/safety/monitor.ml \
  's/^  | (Event.Inv (p, _) | Event.Res (p, Event.Ok_written))$/  | Event.Inv (p, _) | Event.Res (p, _)/' \
  -- dune exec test/test_safety.exe -- test "monitor resumption"

# A commit moves the epoch and the versions, so it recomputes every live
# process's bit of that mask.  Recompute only the committer's: a commit
# that gives a peer's reads a snapshot point, or takes its commit-
# pending one away, leaves the peer's verdict stale.
row verdict-diff-skips-commit --case "resumption is invisible" \
  lib/safety/monitor.ml \
  's/^  | Event.Res (_, Event.Committed) -> failing_from t 0$/  | Event.Res (_, Event.Committed) when false -> failing_from t 0/' \
  -- dune exec test/test_safety.exe -- test "monitor resumption"

# Put back the uniform scheduler's per-tick List.filter over all
# processes: the schedule is unchanged, but the runner's words per step
# (<= 10 words) read 16.2 (3.27 without it).
row per-tick-live-filter --case "runner words per step" lib/sim/runner.ml \
  's/^  let rr = ref 0 in$/  let all_procs = List.init n succ in\n  let rr = ref 0 in/;s/^    | Uniform -> live.(Prng.int sched_prng !nlive)$/    | Uniform ->\n        let procs = List.filter (fun q -> not (crashed tick q)) all_procs in\n        List.nth procs (Prng.int sched_prng (List.length procs))/' \
  -- dune exec test/test_sim.exe -- test "pipeline allocation" 4

# The model checker blits each child but the last into the TM of the
# level below.  Give each such child a copy of its parent's TM instead:
# the preorder is unchanged, but the words per node (<= 10 words) read
# 19.2 (7.21 with the blit).
row walk-copies --case "enumeration words per node" lib/sim/sweep.ml \
  's/^      M.blit tm ~into:below;$/      ignore below;/;s/^      below$/      M.copy tm/' \
  -- dune exec test/test_sim.exe -- test "pipeline allocation" 1

# A counter body is immutable, so every draw of a t-variable below 64
# returns one shared body.  Build a fresh body on every draw: the
# schedule is unchanged, but the runner's words per event over a TM
# that allocates nothing (<= 1.25) read 3.6 (1.09 with the shared ones).
row counter-fresh-body --case "runner alone words per event" \
  lib/sim/workload.ml \
  's/if x < Array.length counter_bodies then counter_bodies.(x)/if false then counter_bodies.(x)/' \
  -- dune exec test/test_sim.exe -- test "pipeline allocation" 9

# Tm_intf.write_set builds a write set in one pass over the pairs it
# has.  Put back the definition it replaced, a List.sort_uniq of the
# variables and a List.assoc for each: the verdicts are unchanged, but
# tl2's words per node at depth 8 (<= 9.5) read 10.3 (7.39 with the
# one pass).
row write-set-sort-uniq --case "enumeration words per node, whole zoo" \
  --expect 'tl2: words per enumerated node at depth 8' lib/tm/tm_intf.ml \
  's/^  | \[\] | \[ _ \] -> writes$/  | _ when true -> ignore insert; List.sort_uniq Int.compare (List.map fst writes) |> List.map (fun x -> (x, List.assoc x writes))/' \
  -- dune exec test/test_sim.exe -- test "pipeline allocation" 8

# An untraced sweep run builds no history: Runner.metrics tallies its
# metrics as it goes.  Run it through Runner.run and keep the history
# in the result: the metrics are unchanged, but the live words
# (<= 4,000) read 126,635 (1,440 without it).
row untraced-history --case "untraced sweep retains no histories" \
  lib/sim/sweep.ml \
  's/else { r_config = c; r_metrics = Runner.metrics c.tm c.spec; r_traced = None }/else let o = Runner.run c.tm c.spec in { r_config = c; r_metrics = o.Runner.metrics; r_traced = Some { t_history = o.Runner.history; t_trace = [] } }/' \
  -- dune exec test/test_sim.exe -- test "pipeline allocation" 7

# The runner reads the empirical fault/starvation window off the last
# max 1 (events / 4) events it tallied.  Read one event fewer: the
# runner's metrics no longer match a walk of its own history.
row tally-window-off-by-one --case "runner metrics = four-pass reference" \
  lib/sim/metrics.ml \
  's|~window:(max 1 (n / 4))|~window:(max 1 (n / 4) - 1)|' \
  -- dune exec test/test_sim.exe -- test metrics 13

# TL2 validates a t-variable read and then written at once only when
# its commit locks it: the word the lock replaced must be at the version
# the read saw.  Make that comparison false: the commit overwrites the
# peer's value.
row lock-skips-version --case "a stale read-then-write aborts" \
  lib/stm/stm_tl2.ml 's/version_of v <> seen/false/' \
  -- dune exec test/test_stm.exe -- test "sets as data" 18

# A cleared write set finds none of its cells: a slot's cell answers
# only while its epoch is the set's.  Ignore the epoch: the set still
# finds the last transaction's writes.
row index-ignores-epoch \
  --case "Wset matches an association list across transactions" \
  lib/stm/stm_core.ml 's/if w.epoch = s.epoch then w.at else -1/w.at/' \
  -- dune exec test/test_stm.exe -- test "sets as data" 20

# A mid-commit crash lands two polls into a multi-poll commit, past its
# lock phase (the mid_commit_depth of the TM's Tm_impl.Contract row).
# Land mvstm's right after its tryC instead: the crash then holds no
# lock and the runner sails on, so the solo-progress cell fails, and so
# does the bench's Z1 section (its mvstm crash-mid-commit reads true: a
# MISMATCH, exit 1).
row mvstm-mid-commit-depth --case "mvstm / crash-mid-commit" \
  lib/tm/contract.ml 's/v ~mid_commit_depth:2 "mvstm"/v "mvstm"/' \
  -- dune exec test/test_tm.exe -- test "solo-progress matrix" 50
row mvstm-mid-commit-verdicts --status 1 \
  --expect 'mvstm crash-mid-commit .*MISMATCH' \
  lib/tm/contract.ml 's/v ~mid_commit_depth:2 "mvstm"/v "mvstm"/' \
  -- sh -c 'TM_BENCH_SECTIONS=z1 dune exec bench/main.exe'

# Figure 15's automaton has no abort transition.  Answer a lone
# process's tryC with an abort: the test reads every poll edge's
# response from the state graph.
row fgp-lone-abort --case "figure 15 has no abort transition" lib/tm/fgp.ml \
  's/^             else deliver_commit t p))$/             else if t.cfg.nprocs = 1 then deliver_abort ~priority t p\n             else deliver_commit t p))/' \
  -- dune exec test/test_tm.exe -- test "fgp figures" 2

# Exhaustive.graph expands a child only when its key is new.  Expand
# every child: the walk becomes the schedule tree and never closes, so
# the figure 15 enumeration fails, and so does the bench paper-verdicts
# rule (bench F15 asserts its graph complete, so the bench stops before
# the diff).
row graph-no-dedup --case "figure 15 enumeration" lib/sim/sweep.ml \
  's/if not (Hashtbl.mem seen k) then begin/if true then begin/' \
  -- dune exec test/test_tm.exe -- test "fgp figures" 1
row graph-no-dedup-verdicts \
  --expect 'paper_figures.ml", line [0-9]*, characters [0-9-]*: Assertion failed' \
  lib/sim/sweep.ml \
  's/if not (Hashtbl.mem seen k) then begin/if true then begin/' \
  -- dune build @bench/runtest

# fgp-priority's abort also drops the aborted process from CP, so the
# next commit does not doom it.  Keep it in CP, as Fgp does: p2's next
# read aborts under both variants.
row fgp-priority-cp-drop --case "only fgp-priority's abort leaves CP" \
  lib/tm/fgp.ml 's/^  if priority then t.cp.(p) <- false;$/  if priority then ();/' \
  -- dune exec test/test_tm.exe -- test "fgp variants" 0

# A blit overwrites every field of its target.  Skip tl2's clock: the
# blitted instance keeps its own, and a later read or commit answers
# differently from a replay.
row tl2-blit-skips-clock --case "blit overwrites every field" lib/tm/tl2.ml \
  's/^    into.clock <- t.clock;$//' \
  -- dune exec test/test_sim.exe -- test "exhaustive sweep" 11

# A blit stores a list field only where the target's differs
# physically.  Guard tl2's write list with its read list: a target whose
# reads are already the source's keeps its own writes.
row blit-guard-stale --case "blit overwrites every field" lib/tm/tl2.ml \
  's/^  if into.writes != txn.writes then into.writes <- txn.writes;$/  if into.reads != txn.reads then into.writes <- txn.writes;/' \
  -- dune exec test/test_sim.exe -- test "exhaustive sweep" 11

# A blit leaves no mutable block of its source reachable from its
# target.  Share twopl's inner readers rows instead of blitting them:
# the source's later reads and releases show in the target.
row twopl-blit-shares-readers --case "blit overwrites every field" \
  lib/tm/twopl.ml \
  's/Tm_intf.blit_array t.readers.(x) ~into:into.readers.(x)/into.readers.(x) <- t.readers.(x)/' \
  -- dune exec test/test_sim.exe -- test "exhaustive sweep" 11

# Tm_intf.Make empties a process's mailbox exactly when its TM answers.
# Leave it full: every zoo TM then keeps a phantom pending invocation.
row mailbox-kept --case "whole zoo conforms" lib/tm/tm_intf.ml \
  's/^            Mailbox.clear m p;$//' \
  -- dune exec test/test_sim.exe -- test conformance 0

# ---- traces ----

# The Chrome-JSON export writes each event's timestamp.  Write it one
# tick late: a parsed export no longer equals the events exported.
row chrome-json-ts --case "JSON round-trip" lib/trace/export.ml \
  's/(string_of_int e.ts)/(string_of_int (e.ts + 1))/' \
  -- dune exec test/test_trace.exe -- test export 0

# ---- the analyzer ----

# Drop the first response from a dumped history: the analyzer must flag
# wf-alternation and exit 1.
row dropped-response \
  --setup "dune exec bin/tmlive.exe -- dump tl2 $WORK/clean-history.txt" \
  --status 1 --expect '"rule":"wf-alternation"' \
  "$WORK/clean-history.txt" '0,/^res /{/^res /d}' \
  -- dune exec bin/tmlive.exe -- analyze --history "$WORK/clean-history.txt" \
  --format json

# ---- tmstatic: exit 1 with a RULE finding whose document also holds
# PATTERN.  The binary is built before the seed and reads the seeded
# sources at run time, so no row rebuilds (ring.mli's would not
# compile). ----

static() { # NAME RULE PATTERN FILE EDIT
  row "$1" --setup 'dune build bin/tmlive.exe' --status 1 \
    --expect "\"rule\":\"$2\"" --expect "$3" "$4" "$5" \
    -- ./_build/default/bin/tmlive.exe static --fail-on warning --format json
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

# ---- chaos ----

# Rewrite the crashed domain's verdict in a crash-holding-locks trace to
# progressing: the chaos-class rule must flag the disagreement and exit
# 1.  Domain 0 classifies crashed under every algorithm, so every
# algorithm has a row.
for algo in tl2 global-lock dstm norec; do
  row "falsified-verdict-$algo" \
    --setup "dune exec bin/tmlive.exe -- chaos --algo $algo --scenario crash-holding-locks --seed 7 --domains 4 --trace $WORK/chaos-$algo.json > /dev/null" \
    --status 1 --expect '"rule":"chaos-class"' \
    "$WORK/chaos-$algo.json" 's/"crashed"/"progressing"/g' \
    -- dune exec bin/tmlive.exe -- analyze --trace "$WORK/chaos-$algo.json" \
    --format json
done

# Count a parasite as in effect once its op clock reaches its onset
# instead of when it turns: the test holds a transaction in flight past
# the onset, and the window's open condition must not hold while it is
# in flight.
row parasite-onset --case "onset waits for the takeover" \
  --expect 'no onset while the transaction is in flight' lib/chaos/runner.ml \
  's/| Plan.Parasitic _ -> Atomic.get ses.ses_turned.(d)/| Plan.Parasitic { from_op } -> ignore ses.ses_turned; Tel.Instrument.value ses.ses_ops.(d) >= from_op/' \
  -- dune exec test/test_chaos.exe -- test run 10

# Close the window at its open (K = 0 sites): the test holds a healthy
# domain in its next past the open, and a window that does not wait for
# its sites reads it crashed.
row window-at-open --case "a held domain is waited for" \
  --expect 'the held domain progresses' lib/chaos/runner.ml \
  's/^let window_sites = Tel.Blame_graph.min_events$/let window_sites = 0/' \
  -- dune exec test/test_chaos.exe -- test run 13

# Open the window without waiting for every live domain to start an
# attempt since the faults took effect: the test holds domain 2 between
# its commit and its count while the crash lands, so the window counts
# that commit.
row late-count --case "a commit is counted before the window opens" \
  --expect 'the held commit is not in the window' lib/chaos/runner.ml \
  's/|| Tel.Instrument.value ses.ses_attempts.(d) > started.(d)))/|| Tel.Instrument.value ses.ses_attempts.(d) >= started.(d)))/' \
  -- dune exec test/test_chaos.exe -- test run 14

# ---- blame ----

# Lock TL2's vlock word without the holder's slot bits: a busy lock then
# names nobody.
row vlock-holder --case "owner comes from the vlock" lib/stm/stm_tl2.ml \
  's/v land lnot owner_mask lor stamp lor 1/v land lnot owner_mask lor (stamp land 0) lor 1/' \
  -- dune exec test/test_stm.exe -- test "observation seam" 7

# Rewrite the starving domains' evidence in a blame-annotated trace to
# progressing: the blame rule must flag every doctored lane and exit 1.
# Only the cells whose shape is star:0 attribute anything (starved-by:0
# evidence) to falsify, and each has a row.
for cell in tl2/crash-holding-locks norec/crash-holding-locks \
  global-lock/crash-holding-locks global-lock/parasitic-only; do
  trace="$WORK/blame-${cell/\//-}.json"
  row "falsified-evidence-${cell/\//-}" \
    --setup "dune exec bin/tmlive.exe -- blame --algo ${cell%/*} --scenario ${cell#*/} --seed 7 --domains 4 --trace $trace > /dev/null" \
    --status 1 --expect '"rule":"blame"' \
    "$trace" 's/starved-by:0/progressing/g' \
    -- dune exec bin/tmlive.exe -- analyze --trace "$trace" --format json
done

# ---- telemetry ----

# Drop the "- 1" from the shared upper-bound rule (Tm_sim.Hist), so each
# sub-bucketed bucket's bound reaches the first value of the next one:
# the property, run once per layout, must fail for every layout.
row upper-bound-off-by-one \
  --case "sim layout: bucket_of and bucket_upper agree" \
  --case "log2 layout: bucket_of and bucket_upper agree" \
  --case "hires layout: bucket_of and bucket_upper agree" lib/sim/hist.ml \
  's/((sub + 1) lsl (m - l.sub_bits)) - 1/(sub + 1) lsl (m - l.sub_bits)/' \
  -- dune exec test/test_telemetry.exe -- test histograms 3-5

# A registered metric is a read of its owner's state.  Make the
# liveness gauge's correct read a constant 1: the test scrapes a domain
# whose counters froze and reads the stateset crashed and the correct
# gauge still 1.
row constant-correct-read --case "class transitions" \
  lib/telemetry/liveness_gauge.ml \
  's/(fun () -> correct_of_cls t.current.(d))/(fun () -> max 1 (correct_of_cls t.current.(d)))/' \
  -- dune exec test/test_telemetry.exe -- test liveness 0

# ---- serve ----

# Make the one per-op code path write a hitting cas's expected value
# instead of its desired one: the executor's final store then differs
# from the sequential-map spec.
row cas-writes-expected --case "sequential-spec conformance" \
  lib/serve/store.ml 's/Stm.write tv y;/Stm.write tv (ignore y; x);/' \
  -- dune exec test/test_serve.exe -- test server 6

# Build each guide entry from its bucket's upper edge (i + 1) / m: a
# draw then skips the ranks whose cumulative mass falls inside its
# bucket, so Zipf.sample_u disagrees with a binary search over the
# cumulative masses.
row zipf-upper-edge --case "sample = inversion" --expect 'binary search' \
  lib/serve/zipf.ml \
  's/float_of_int i \/. float_of_int m/float_of_int (i + 1) \/. float_of_int m/' \
  -- dune exec test/test_serve.exe -- test zipf 4

# Build the executor's transaction body per request again: the closure
# costs 4 words, and the read-mostly gate is <= 1 word (measured 0.05).
row request-closure --case "served-request allocation" \
  --expect 'served read-mostly request' lib/serve/server.ml \
  's/let execute x = Stm.atomically x.x_body/let execute x = Stm.atomically (fun () -> x.x_body ())/' \
  -- dune exec test/test_serve.exe -- test server 8

# Build the combiner's flush body per flush again: the closure costs 4
# words per combined put, and the write-heavy gate through the combiner
# is <= 1 word (measured 0.05).
row flush-closure --case "served-request allocation" \
  --expect 'served write-heavy request, combined' lib/serve/server.ml \
  's/Stm.atomically c.fc_body/Stm.atomically (fun () -> c.fc_body ())/' \
  -- dune exec test/test_serve.exe -- test server 8

# A first write reuses its t-variable's write cell from the domain's
# table.  Allocate a fresh cell every time instead (5 words per first
# write): the long-txn gate is <= 1 word (measured 0.21).
row fresh-write-cell --case "served-request allocation" \
  --expect 'served long-txn request' lib/stm/stm_core.ml \
  's/| W w as e when w.tv.id = tv.id ->/| W w as e when false \&\& w.tv.id = tv.id ->/' \
  -- dune exec test/test_serve.exe -- test server 8

# Register a read of 0 for each executor's batched-put tally: the
# outcome still counts the combined puts, so the final scrape disagrees
# on tm_serve_batched_total.
row tally-dropped --case "final scrape agrees with the outcome" \
  --expect 'tm_serve_batched_total' lib/serve/server.ml \
  's/^    (fun t -> t.t_batched);$/    (fun _ -> 0);/' \
  -- dune exec test/test_serve.exe -- test server 10

# Time every closed-loop request, as before sampling: each kind then has
# one latency sample per admitted request, not exactly (n + 15) / 16 per
# kind per domain.
row unsampled-latency --case "final scrape agrees with the outcome" \
  --expect 'latency samples' lib/serve/server.ml \
  's/t.t_by_kind.(kind) land 15 = 1/true/' \
  -- dune exec test/test_serve.exe -- test server 10

# Put each domain's op counter into the serving chaos verdict document:
# the test runs the plan twice and compares the two documents byte for
# byte.
row measured-counter --case "crash-holding-locks tl2" \
  --expect 'FAIL chaos json stable' lib/serve/server.ml \
  's/\\"crashed\\":%b}"/\\"crashed\\":%b,\\"ops\\":%d}"/; s/(Runner.report_ok r) r.rep_crashed))/(Runner.report_ok r) r.rep_crashed r.rep_last.Runner.ops))/' \
  -- dune exec test/test_serve.exe -- test chaos-serve 0

# ---- loadcurve ----

# Perturb the pure nanosecond scale by the wall clock's sub-second phase
# (staying within 1-2x nominal so the model does not degenerate): the
# arrival schedule now depends on when the run happens, so two runs of
# the canonical curve a second apart must differ.  Guards against the
# arrival clock silently growing a wall-clock dependency (and against
# the fixture diff going vacuous).  cmp's report is the expected line,
# so a build failure is not taken for a catch.
row wall-clock-arrival --expect 'differ' lib/serve/arrival.ml \
  's/let ns_per_s = 1e9/let ns_per_s = 1e9 +. Float.rem (Unix.gettimeofday () *. 1e9) 1e9/' \
  -- sh -c 'set -e
    for i in 1 2; do
      sleep 1
      dune exec bin/tmlive.exe -- loadcurve --profile mixed --clients 4000 \
        --ops 2 --keys 64 --seed 42 --domains 1 --format json \
        > "$WORK/curve-$i.json" 2> /dev/null
    done
    cmp "$WORK/curve-1.json" "$WORK/curve-2.json"'
